"""repro — a reproduction of REALTOR (Choi, Rho, Bettati; IPPS 2003).

*Dynamic Resource Discovery for Applications Survivability in
Distributed Real-Time Systems* proposes REALTOR, a resource-discovery
protocol combining adaptive pull (HELP solicitations with a
reward/penalty interval, Algorithm H) and adaptive push (threshold-
crossing PLEDGE reports, Algorithm P) over soft-state communities, to
support proactive component migration under attack and overload.

This package contains the full system: a discrete-event kernel
(:mod:`repro.sim`), the overlay network substrate (:mod:`repro.network`),
the node model (:mod:`repro.node`), REALTOR and its four baselines as
rows of one protocol table (:mod:`repro.core`, :mod:`repro.protocols`),
admission/migration (:mod:`repro.migration`), workload and attack generators
(:mod:`repro.workload`), the experiment harness regenerating every
figure of the paper (:mod:`repro.experiments`; Section 6's 20-host
testbed is one of its plan cells), and the live runtime running the
same system on a wall clock (:mod:`repro.live`).

Quickstart
----------
>>> from repro import paper_config, run_experiment
>>> result = run_experiment(paper_config("realtor", arrival_rate=6.0,
...                                      horizon=500.0))
>>> 0.9 < result.admission_probability <= 1.0
True
"""

# Lazy re-exports (PEP 562): importing an agent subpackage such as
# ``repro.core`` must not drag in the experiment harness — and through it
# the simulation kernel — because the agents are runtime-agnostic (the
# live asyncio runtime imports them without any simulator installed; the
# import-isolation test pins this).  The public API is unchanged: the
# first attribute access resolves and caches the name.
_LAZY_EXPORTS = {
    "ExperimentConfig": ("experiments.config", "ExperimentConfig"),
    "paper_config": ("experiments.config", "paper_config"),
    "System": ("experiments.runner", "System"),
    "build_system": ("experiments.runner", "build_system"),
    "run_experiment": ("experiments.runner", "run_experiment"),
    "RunResult": ("metrics.collector", "RunResult"),
    "ProtocolConfig": ("protocols.base", "ProtocolConfig"),
    "PAPER_PROTOCOLS": ("protocols.registry", "PAPER_PROTOCOLS"),
    "make_agent": ("protocols.registry", "make_agent"),
    "protocol_names": ("protocols.registry", "protocol_names"),
}


def __getattr__(name: str):
    entry = _LAZY_EXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{entry[0]}", __name__), entry[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "paper_config",
    "System",
    "build_system",
    "run_experiment",
    "RunResult",
    "ProtocolConfig",
    "PAPER_PROTOCOLS",
    "make_agent",
    "protocol_names",
    "__version__",
]
