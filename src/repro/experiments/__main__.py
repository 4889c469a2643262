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

Prints the same rows the paper's figures plot, plus the shape checks.
With ``--store DIR`` every completed run persists to a content-addressed
store: an interrupted invocation resumes where it died, and repeat
invocations render figures without re-simulating (docs/experiments.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from . import figures as fg
from .ablations import STUDIES, run_study

FIGURES = {
    "fig5": fg.fig5_admission_probability,
    "fig6": fg.fig6_message_overhead,
    "fig7": fg.fig7_cost_per_task,
    "fig8": fg.fig8_migration_rate,
}

FIGURE_TARGETS = [*FIGURES, "fig9"]
GROUPS = {"all": FIGURE_TARGETS, "ablations": list(STUDIES)}


def expand_targets(names: List[str]) -> List[str]:
    """Lower-case ``names`` and expand ``all`` / ``ablations``.

    Raises ``ValueError`` on the first name that is no figure, study or
    group, so a typo is reported before anything has been simulated.
    """
    targets: List[str] = []
    for name in names:
        name = name.lower()
        if name in GROUPS:
            targets += GROUPS[name]
        elif name in FIGURE_TARGETS or name in STUDIES:
            targets.append(name)
        else:
            raise ValueError(f"unknown target: {name}")
    return targets


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and the ablation tables.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help=f"{' '.join(FIGURE_TARGETS)} | {' '.join(STUDIES)} | all | ablations",
    )
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds per run (default 10000)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parallel", action="store_true",
                        help="fan runs out over a process pool")
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="write the figure sweep results to a JSON file")
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

    store = None
    if args.resume and args.force:
        parser.error("--resume and --force are mutually exclusive")
    if (args.resume or args.force) and not args.store:
        parser.error("--resume/--force need --store DIR")
    if args.store:
        from .store import RunStore

        store = RunStore(args.store)

    # studies keep their own default horizon unless one is given
    study_horizon = {} if args.horizon is None else {"horizon": args.horizon}
    horizon = 10_000.0 if args.horizon is None else args.horizon

    failed = False
    # Figures 5-8 are projections of one sweep; when several are
    # requested, run the sweep once and share it.  --observe forces the
    # shared path even for a single figure so the telemetry reporter can
    # watch the sweep's runs stream in.
    shared_raw = None
    progress = None
    figure_targets = sum(1 for t in targets if t in FIGURES)
    if figure_targets > 1 or (args.observe and figure_targets >= 1):
        from ..protocols.registry import PAPER_PROTOCOLS
        from .config import ExperimentConfig
        from .figures import DEFAULT_RATES
        from .sweep import run_sweep

        if args.observe:
            from ..obs.telemetry import ProgressReporter

            progress = ProgressReporter(
                total=len(PAPER_PROTOCOLS) * len(DEFAULT_RATES)
            )
        base = ExperimentConfig(horizon=horizon, seed=args.seed)
        shared_raw = run_sweep(
            PAPER_PROTOCOLS, list(DEFAULT_RATES), base,
            parallel=args.parallel, progress=progress,
            store=store, force=args.force,
        )
        if progress is not None:
            print(progress.summary(), file=sys.stderr)

    for target in targets:
        if target in FIGURES:
            kwargs = dict(
                horizon=horizon,
                seed=args.seed,
                parallel=args.parallel,
                raw=shared_raw,
            )
            if store is not None:
                kwargs.update(store=store, force=args.force)
            result = FIGURES[target](**kwargs)
            if shared_raw is None:
                shared_raw = result.raw  # reuse for later figures / --save
            print(result.summary())
            if args.chart:
                from ..analysis.ascii_chart import render

                print()
                print(render(result.xs, result.series,
                             title=result.figure, x_label="lambda"))
            print()
            failed |= not result.all_passed
        elif target == "fig9":
            kwargs = dict(horizon=min(horizon, 5_000.0), seed=args.seed)
            if store is not None:
                kwargs.update(store=store, force=args.force)
            result = fg.fig9_testbed_admission(**kwargs)
            print(result.summary())
            print()
            failed |= not result.all_passed
        else:
            result = run_study(
                target, store=store, parallel=args.parallel, force=args.force,
                seed=args.seed, **study_horizon,
            )
            print(result.summary())
            print()

    if args.save and shared_raw is not None:
        from ..metrics.export import save_sweep

        path = save_sweep(shared_raw, args.save)
        print(f"sweep results written to {path}")
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
