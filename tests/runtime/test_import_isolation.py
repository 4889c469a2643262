"""Import-isolation pin for the sim/live runtime seam.

The protocol agents (``repro.core``, ``repro.protocols``,
``repro.migration``) are runtime-agnostic: they program against the
structural protocols in :mod:`repro.runtime.api` and must be importable
without dragging in the discrete-event kernel (the live asyncio runtime
imports them in a process that never builds a Simulator).  These tests
run the import in a fresh subprocess — the only way to observe the true
transitive closure, since the test process itself has long since loaded
everything.
"""

import json
import subprocess
import sys

import pytest

#: modules that must never appear transitively when importing the agents
_FORBIDDEN = (
    "repro.sim.kernel",
    "repro.sim.events",
    "repro.experiments.runner",
    "repro.experiments.config",
)

_AGENT_PACKAGES = ("repro.core", "repro.protocols", "repro.migration")


def _imported_modules(*imports: str) -> list:
    """Import ``imports`` in a fresh interpreter, return loaded repro.* modules."""
    code = (
        "import json, sys\n"
        + "".join(f"import {mod}\n" for mod in imports)
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_agent_packages_do_not_import_simulator():
    loaded = _imported_modules(*_AGENT_PACKAGES)
    offenders = [m for m in loaded for f in _FORBIDDEN if m == f]
    assert not offenders, f"agent import pulled in {offenders}; loaded: {loaded}"


@pytest.mark.parametrize("package", _AGENT_PACKAGES)
def test_each_agent_package_isolated(package):
    loaded = _imported_modules(package)
    assert "repro.sim.kernel" not in loaded, loaded


def test_agent_modules_usable_without_simulator():
    """The classes themselves resolve without any sim module loaded."""
    code = """
import sys
from repro.core import HelpScheduler
from repro.protocols import PROTOCOLS, make_agent, protocol_names, PAPER_PROTOCOLS
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.migration import MigrationCoordinator
assert callable(make_agent) and "realtor" in protocol_names()
assert PROTOCOLS["realtor"].parts == ("adaptive", "none", "community")
assert all(p in protocol_names() or True for p in PAPER_PROTOCOLS)
assert not any(m.startswith("repro.sim") for m in sys.modules), sorted(
    m for m in sys.modules if m.startswith("repro.sim"))
print("OK")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_simulator_still_implements_seam():
    """The kernel and transport satisfy the structural seam protocols."""
    from repro.runtime.api import PeriodicHandle, TimerHandle
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=1)
    handle = sim.at(1.0, lambda: None)
    assert isinstance(handle, TimerHandle)
    timer = sim.periodic(1.0, lambda: None)
    assert isinstance(timer, PeriodicHandle)
    assert hasattr(sim, "now") and hasattr(sim, "trace") and hasattr(sim, "streams")
