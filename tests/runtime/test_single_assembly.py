"""Structural pin: there is one system assembly, and it is not in ``live/``.

``repro.experiments.runner`` is the only module that constructs hosts,
agents, admission controls, the migration coordinator, the arrival
generator and the registry probes; ``LiveRuntime`` receives them
assembled.  An ``ast`` walk (no import, no execution) over the live
runtime's source keeps a second hand-written assembly from quietly
growing back.
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
