"""R3 — hot-path hygiene: ``__slots__`` everywhere hot.

Classes in ``dram/``, ``sim/engine.py``, ``core/queues.py`` and
``core/access.py`` — the per-event and per-decision inner loops — must
declare ``__slots__``.  Slotted attribute access is measurably faster and
keeps per-object memory flat at event-queue scale.
Enum/Protocol/NamedTuple/dataclass/exception classes and the
dynamic-counter MetricGroup family are exempt by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    LintRun,
    Rule,
    SourceModule,
    assign_targets,
    base_names,
    decorator_names,
)

#: Single hot modules outside ``dram/``: the event loop, and the queue
#: index and access objects every scheduling decision walks.
_HOT_FILES = ("sim/engine.py", "core/queues.py", "core/access.py")

#: Base classes whose subclasses manage attribute storage differently.
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "IntFlag", "Flag",
                           "NamedTuple", "TypedDict"})


def _slots_exempt(cls: ast.ClassDef) -> bool:
    bases = base_names(cls)
    if bases & _EXEMPT_BASES:
        return True
    # Exception hierarchies carry BaseException's dict machinery.
    if any(b.endswith(("Error", "Exception", "Warning")) for b in bases):
        return True
    # The MetricGroup family binds counters dynamically from COUNTERS
    # declarations (see repro/metrics/registry.py) — R5's territory.
    if any(b.endswith(("Stats", "Group")) for b in bases):
        return True
    if "dataclass" in decorator_names(cls):
        return True
    return False


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        for target in assign_targets(stmt):
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class HotPathRule(Rule):
    id = "R3"
    name = "hot-path-hygiene"
    description = (
        "classes in dram/, sim/engine.py, core/queues.py and "
        "core/access.py must declare __slots__"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        if not (module.in_package("dram")
                or any(module.is_file(f) for f in _HOT_FILES)):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _slots_exempt(node) or _declares_slots(node):
                continue
            yield module.finding(
                self, node,
                f"hot-path class {node.name} must declare __slots__ "
                "(attribute-offset dispatch)",
            )
