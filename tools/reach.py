#!/usr/bin/env python
"""Reach audit: how much of ``src/repro`` the product commands run.

``python tools/reach.py [--unreached]`` runs each of ``COMMANDS`` serially (pool
workers are not traced) under a stdlib ``sys.settrace`` tracer and prints the
share of named functions under ``src/repro`` entered and of their executable body
lines run; ``--unreached`` lists those never entered.  Needs Python 3.11.
"""

import inspect, json, os, runpy, subprocess, sys, tempfile, time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIVE = ["-m", "repro.live", "--nodes", "25", "--rate", "5", "--duration", "800",
        "--time-scale", "400", "--no-series"]  # the benchmark's load: messages flow
# left out for time: long re-runs of fig9, figs 5-8 and A3, then three adding <= 1 line each
SKIP = {"agile_cluster.py", "protocol_comparison.py", "scaling_study.py",
        "dynamic_overlay.py", "live_metrics.py", "store_resume.py"}
ARGS = {"churn_fleet_run.py": ["{tmp}/churn.json"], "inspect_run.py": ["{tmp}/i", "{tmp}/i.txt"],
        "observe_run.py": ["{tmp}/o.jsonl"]}
COMMANDS = [
    ["-m", "repro.experiments", "all", "--horizon", "60", "--store", "{tmp}/s", "--chart",
     "--observe"],
    ["-m", "repro.experiments", "ablations", "--horizon", "60", "--store", "{tmp}/s"],
    ["-m", "repro.experiments", "a6"],  # its default horizon: the remote HELPs run
    ["-m", "repro.obs", "inspect", "--store", "{tmp}/s"],
    LIVE, [*LIVE, "--backend", "udp"],
    *([str(path), *ARGS.get(path.name, [])] for path in sorted(ROOT.glob("examples/*.py"))
      if path.name not in SKIP),
    # the other obs subcommands, over files the commands above wrote ({tmp}/i has series)
    ["-m", "repro.obs", "timeline", "--trace", "{tmp}/o.jsonl"],
    ["-m", "repro.obs", "diff", "--store", "{tmp}/s", "#0", "#1"],
    ["-m", "repro.obs", "inspect", "--store", "{tmp}/i", "--run", "#0", "--jsonl",
     "{tmp}/r.jsonl", "--csv", "{tmp}/r.csv"],
]

def lines_of(code) -> set:
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}

def trace(out: str, argv: list) -> None:
    """Child: run ``argv`` traced; dump the functions entered and lines run."""
    todo = {}  # code object -> its lines not run yet (None: not under src/)
    def local(frame, event, arg):  # a frame stops being traced once its code ran whole
        left = todo[frame.f_code]
        left.discard(frame.f_lineno)
        return local if left else None
    def call(frame, event, arg):
        code = frame.f_code
        if code not in todo:
            todo[code] = lines_of(code) if code.co_filename.startswith(str(SRC)) else None
        return local if todo[code] else None

    sys.argv = argv[1:] if argv[0] == "-m" else argv
    sys.settrace(call)
    try:
        (runpy.run_module(argv[1], run_name="__main__", alter_sys=True) if argv[0] == "-m"
         else runpy.run_path(argv[0], run_name="__main__"))
    except SystemExit as exc:  # a failed shape check (exit 1) still ran its code
        if exc.code not in (None, 0, 1):
            raise  # a usage or input error: the command did not run
    finally:
        sys.settrace(None)
        mine = {code: left for code, left in todo.items() if left is not None}
        Path(out).write_text(json.dumps([
            [(c.co_filename, c.co_firstlineno) for c in mine],
            [(c.co_filename, line) for c, left in mine.items() for line in lines_of(c) - left],
        ]))

def functions():
    """Every named function under ``src/repro``: (file, def line, name, body)."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                yield str(path), code.co_firstlineno, code.co_qualname, lines_of(code)

def main(unreached: bool) -> None:
    entered, ran = set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        for i, command in enumerate(COMMANDS):
            out, start = os.path.join(tmp, f"reach-{i}.json"), time.perf_counter()
            subprocess.run([sys.executable, __file__, "--trace", out,
                            *(arg.format(tmp=tmp) for arg in command)],
                           env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp,
                           stdout=subprocess.DEVNULL, check=True)
            first, lines = json.loads(Path(out).read_text())
            entered |= set(map(tuple, first))
            ran |= set(map(tuple, lines))
            print(f"{time.perf_counter() - start:6.1f} s  {' '.join(command)}", file=sys.stderr)
    fns = list(functions())
    missed = [fn for fn in fns if fn[:2] not in entered]  # (file, def line) never entered
    for path, line, name, lines in missed if unreached else ():
        print(f"{Path(path).relative_to(SRC)}:{line} {name} ({len(lines)} lines)")
    hit, body = len(fns) - len(missed), sum(len(f[3]) for f in fns)
    body_ran = sum(len({(path, n) for n in lines} & ran) for path, _, _, lines in fns)
    print(f"reach over {len(COMMANDS)} commands: functions {hit}/{len(fns)} ({hit / len(fns):.1%}),"
          f" function-body lines {body_ran}/{body} ({body_ran / body:.1%})")

if __name__ == "__main__":
    if sys.argv[1:2] == ["--trace"]:
        trace(sys.argv[2], sys.argv[3:])
    else:
        main("--unreached" in sys.argv[1:])
