"""R3 — hot-path hygiene: ``__slots__`` everywhere hot, enum members
bound once.

Classes in ``dram/``, ``sim/engine.py``, ``core/queues.py`` and
``core/access.py`` — the per-event and per-decision inner loops — must
declare ``__slots__``.  Slotted attribute access is measurably faster and
keeps per-object memory flat at event-queue scale.
Enum/Protocol/NamedTuple/dataclass/exception classes and the
dynamic-counter MetricGroup family are exempt by construction.

Function bodies in ``core/``, ``cache/translator.py`` and
``sim/system.py`` — the code every DRAM access runs — must not load a
member of the request vocabulary's enums (``Priority.PR``,
``AccessRole.TAG_READ``, ``RequestType.READ``): each such load goes
through the enum metaclass, about ten times the cost of a name bound
once at module level (``_PR = Priority.PR``).
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

#: Modules whose function bodies must not load enum members: the
#: controller package (a prefix), the translator and the system wiring.
_ENUM_PACKAGES = ("core",)
_ENUM_FILES = ("cache/translator.py", "sim/system.py")

#: The request vocabulary's enums (``repro.core.access``).
_HOT_ENUMS = frozenset({"Priority", "AccessRole", "RequestType"})

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


def _enum_member_loads(tree: ast.AST) -> Iterator[tuple[ast.Attribute, str]]:
    """``(node, "Enum.MEMBER")`` for each load of a hot enum's member
    inside a function body."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # The body only: defaults and decorators are evaluated once.
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in _HOT_ENUMS):
                    yield node, f"{node.value.id}.{node.attr}"


class HotPathRule(Rule):
    id = "R3"
    name = "hot-path-hygiene"
    description = (
        "classes in dram/, sim/engine.py, core/queues.py and "
        "core/access.py must declare __slots__; function bodies in core/, "
        "cache/translator.py and sim/system.py must not load "
        "Priority/AccessRole/RequestType members"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        if (module.in_package(*_ENUM_PACKAGES)
                or any(module.is_file(f) for f in _ENUM_FILES)):
            # A nested function is walked by its parent too: report each
            # load once.
            seen: set[tuple[int, int]] = set()
            for node, member in _enum_member_loads(module.tree):
                where = (node.lineno, node.col_offset)
                if where in seen:
                    continue
                seen.add(where)
                yield module.finding(
                    self, node,
                    f"enum member {member} loaded in a function body: "
                    "bind it once at module level",
                )
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
