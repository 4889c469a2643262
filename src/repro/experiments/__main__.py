"""Command-line entry point: regenerate any figure or ablation.

Usage::

    python -m repro.experiments fig5 [--horizon 10000] [--seed 1] [--parallel]
    python -m repro.experiments fig6 fig7 fig8 fig9
    python -m repro.experiments all --horizon 2000
    python -m repro.experiments ablations               # studies A1-A8, B1-B4
    python -m repro.experiments a1 b4 --horizon 500 --parallel
    python -m repro.experiments all --store runs/       # resumable; re-run
    python -m repro.experiments all --store runs/       # ...is 100% cache hits
    python -m repro.experiments fig5 --store runs/ --force

A target is a row of ``figures.FIGURES`` or ``ablations.STUDIES``, or a
group.  A figure prints the rows the paper plots, the gated shape checks
and the paper's quoted magnitudes next to the measured ones.
With ``--store DIR`` every completed run persists to a content-addressed
store: an interrupted invocation resumes where it died, and repeat
invocations render figures without re-simulating (docs/experiments.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..analysis.ascii_chart import render
from ..obs.telemetry import ProgressReporter
from .ablations import STUDIES, run_study
from .figures import FIGURES, paper_sweep, run_figure
from .store import RunStore

GROUPS = {"all": list(FIGURES), "ablations": list(STUDIES)}


def expand_targets(names: List[str]) -> List[str]:
    """Lower-case ``names`` and expand ``all`` / ``ablations``.

    Raises ``ValueError`` on the first name that is no figure, study or
    group, so a typo is reported before anything has been simulated.
    """
    targets = [t for name in names for t in GROUPS.get(name.lower(), [name.lower()])]
    for target in targets:
        if target not in FIGURES and target not in STUDIES:
            raise ValueError(f"unknown target: {target}")
    return targets


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and the ablation tables.",
    )
    parser.add_argument("targets", nargs="+",
                        help=" | ".join([" ".join(FIGURES), " ".join(STUDIES), *GROUPS]))
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds per run (default: each row's own; "
                             "10000 for Figures 5-8)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parallel", action="store_true",
                        help="fan runs out over a process pool")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="content-addressed run store: completed cells are "
                             "served from DIR and fresh cells persisted there, "
                             "so interrupted sweeps resume and repeat "
                             "invocations re-simulate nothing (see "
                             "docs/experiments.md)")
    parser.add_argument("--resume", action="store_true",
                        help="explicit alias for the --store default: skip "
                             "every cell already in the store (requires "
                             "--store)")
    parser.add_argument("--force", action="store_true",
                        help="re-run every cell even on a store hit, "
                             "refreshing the stored records (requires --store)")
    parser.add_argument("--chart", action="store_true",
                        help="draw each figure as an ASCII chart too")
    parser.add_argument("--observe", action="store_true",
                        help="stream live sweep telemetry (progress, ETA, "
                             "per-protocol message/loss rates) to stderr")
    args = parser.parse_args(argv)
    try:
        targets = expand_targets(args.targets)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.resume and args.force:
        parser.error("--resume and --force are mutually exclusive")
    if (args.resume or args.force) and not args.store:
        parser.error("--resume/--force need --store DIR")
    store = RunStore(args.store) if args.store else None

    # every row keeps its own default horizon unless one is given
    horizon = {} if args.horizon is None else {"horizon": args.horizon}
    run = dict(parallel=args.parallel, store=store, force=args.force)

    failed = False
    # cell source -> its results: Figures 5-8 are projections of one
    # sweep, so the first of them runs it and the rest reuse it
    sweeps = {}
    observed = [FIGURES[t] for t in targets
                if t in FIGURES and FIGURES[t].cells is paper_sweep]
    if args.observe and observed:
        # run the shared sweep up front so the reporter watches it stream in
        row = observed[0]
        progress = ProgressReporter(total=len(row.protocols) * len(row.rates))
        sweeps[paper_sweep] = paper_sweep(
            list(row.rates), row.protocols, args.horizon or row.horizon,
            args.seed, None, progress=progress, **run,
        )
        print(progress.summary(), file=sys.stderr)

    for target in targets:
        if target in FIGURES:
            source = FIGURES[target].cells
            result = run_figure(
                target, seed=args.seed, raw=sweeps.get(source), **horizon, **run
            )
            sweeps.setdefault(source, result.raw)
            failed |= not result.all_passed
        else:
            result = run_study(target, seed=args.seed, **horizon, **run)
        print(result.summary())
        if args.chart and target in FIGURES:
            print()
            print(render(result.xs, result.series, title=result.figure, x_label="lambda"))
        print()

    if store is not None:
        stats = store.stats()
        print(
            f"[store] {args.store}: {stats['entries']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses, "
            f"{stats['writes']} written",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
