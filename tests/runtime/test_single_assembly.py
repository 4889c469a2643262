"""Structural pin: one system assembly, one send path and one agenda, none in ``live/``.

``repro.experiments.runner`` is the only module that constructs hosts,
agents, admission controls, the migration coordinator, the arrival
generator and the registry probes; ``LiveRuntime`` receives them
assembled.  ``repro.network.transport`` is the only module that decides
who receives a message and what it costs; ``LiveTransport`` inherits
that and keeps the wire.  ``repro.sim.kernel`` is the only module that
pushes on the event heap, cancels, builds the periodic helpers and runs
finalizers; ``LiveScheduler`` inherits that and keeps the wall clock.
An ``ast`` walk (no import, no execution) over the live sources keeps a
second hand-written copy of any of them from quietly growing back.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: the building blocks only the shared assembler may touch
_ASSEMBLY_NAMES = {
    "Host",
    "AdmissionControl",
    "make_agent",
    "MigrationCoordinator",
    "ArrivalGenerator",
    "generators",
}


def _imported_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_live_runtime_imports_no_assembly_building_block():
    offenders = _imported_names(SRC / "live" / "runtime.py") & _ASSEMBLY_NAMES
    assert not offenders, f"live/runtime.py assembles on its own again: {sorted(offenders)}"


def test_the_walk_sees_the_building_blocks_where_they_belong():
    # guards the guard: the same walk finds every name in the one assembler
    assert _ASSEMBLY_NAMES <= _imported_names(SRC / "experiments" / "runner.py")


#: the send path: functions only ``network/transport.py`` may define,
#: identifiers only it may mention
_SEND_FUNCTIONS = {"unicast", "flood", "multicast", "register", "unregister"}
_SEND_NAMES = {"on_cost", "cost_model"}


def _functions_and_identifiers(path: Path) -> tuple:
    functions, identifiers = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
        elif isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            identifiers.add(node.arg)
    return functions, identifiers


def test_live_transport_has_no_send_path_of_its_own():
    functions, identifiers = _functions_and_identifiers(SRC / "live" / "transport.py")
    assert not functions & _SEND_FUNCTIONS, "live/transport.py sends on its own again"
    assert not identifiers & _SEND_NAMES, "live/transport.py charges on its own again"


def test_the_walk_sees_the_send_path_where_it_belongs():
    functions, identifiers = _functions_and_identifiers(SRC / "network" / "transport.py")
    assert _SEND_FUNCTIONS <= functions and _SEND_NAMES <= identifiers


#: the agenda: functions only ``sim/kernel.py`` may define, identifiers
#: only it may mention
_AGENDA_FUNCTIONS = {"cancel", "periodic", "add_finalizer"}
_AGENDA_NAMES = {"heappush", "PeriodicTimer"}


def test_live_scheduler_has_no_agenda_of_its_own():
    functions, identifiers = _functions_and_identifiers(SRC / "live" / "scheduler.py")
    assert not functions & _AGENDA_FUNCTIONS, "live/scheduler.py keeps its own timers again"
    assert not identifiers & _AGENDA_NAMES, "live/scheduler.py keeps its own heap again"
    assert "run" in functions  # bench/trace.py patches vars(LiveScheduler)["run"]


def test_the_walk_sees_the_agenda_where_it_belongs():
    functions, identifiers = _functions_and_identifiers(SRC / "sim" / "kernel.py")
    assert _AGENDA_FUNCTIONS <= functions and _AGENDA_NAMES <= identifiers
