"""The seams the benchmark harness (``bench/``) hooks into.

``bench/trace.py`` wraps ``MetricsCollector.on_cost`` through the class
dict and the discovery entry points of every ``DiscoveryAgent`` subclass
it can walk after importing ``repro.protocols.registry``,
``bench/workloads.py`` types a run's result as
``repro.metrics.collector.RunResult``, and its live workload wraps the
collector's ``task_admitted`` / ``task_rejected`` / ``task_lost`` on the
instance to time every settlement.  Moving any of them breaks the
benchmark rather than a test, so they are pinned here.
"""

import asyncio
import subprocess
import sys
from collections import Counter

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.live.runtime import LiveConfig, LiveRuntime
from repro.metrics.collector import MetricsCollector, RunResult


def test_on_cost_is_patchable_on_the_class():
    assert "on_cost" in vars(MetricsCollector)


def test_system_result_is_the_collectors_run_result():
    system = build_system(ExperimentConfig(horizon=20.0, seed=1))
    system.run()
    assert type(system.result()) is RunResult


def test_instance_hooks_see_every_task_settle_once(manual_clock):
    # the live_inproc workload's shape, shortened: 25 nodes at offered
    # load 1.0, mailboxes, a real negotiation for each migrated task
    cfg = LiveConfig(
        nodes=25, protocol="realtor", arrival_rate=5.0, time_scale=400.0,
        horizon=800.0, backend="inproc", queue_capacity=100.0, seed=1,
    )
    rt = LiveRuntime(cfg)
    settled = Counter()
    for hook in ("task_admitted", "task_rejected", "task_lost"):
        inner = getattr(rt.metrics, hook)

        def observe(task, inner=inner):
            settled[task.task_id] += 1
            inner(task)

        setattr(rt.metrics, hook, observe)
    tasks = asyncio.run(rt.run())["tasks"]
    assert tasks["generated"] > 0 and tasks["admitted_migrated"] > 0
    assert len(settled) == tasks["generated"]
    assert set(settled.values()) == {1}


def test_registry_import_loads_every_agent_class():
    # a fresh interpreter: the test process has loaded every module already
    code = (
        "from repro.protocols import registry\n"
        "from repro.protocols.base import DiscoveryAgent\n"
        "print(sorted(c.__name__ for c in DiscoveryAgent.__subclasses__()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['GossipAgent', 'HierarchicalRealtorAgent']"
