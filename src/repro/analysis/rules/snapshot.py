"""R2 — snapshot safety: live state must be capturable, and visible.

The PR 4 snapshot/restore machinery (and the warm-state cache built on
it) guarantees bit-identity only if every piece of mutable simulation
state is reachable by capture.  Two hazards, both seen in past PRs:

* **module-level mutable state** — the PR 4 hidden-global-counter bug
  (``Access._seq``-style state that no snapshot can see);
* **stateful classes without snapshot hooks** — the PR 6 pooled-event
  hazard (an event freelist leaking into snapshots until the engine's
  own ``__getstate__``/``__deepcopy__`` learned to drop it).

A class with mutable instance state must therefore either define a
capture/restore pair (``capture_state``/``restore_state``, bare
``capture``/``restore``, or any ``capture*``/``restore*`` pair), control
its own copying (``__deepcopy__``, ``__getstate__``, ``__reduce__``), or
appear in :data:`ALLOWLIST` with a reason.  Scoped to the simulation
packages.
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
    class_methods,
    decorator_names,
    is_mutable_container,
    self_attr_target,
)

_SIM_PACKAGES = ("sim", "dram", "cache", "mem")

#: Classes exempted from the hook requirement, with the reason on
#: record.  Everything here is captured through the whole-graph deepcopy
#: path that PR 4 made copy-safe (or never enters a timed simulation at
#: all); the rule exists so *new* state-holders make that choice
#: consciously rather than by omission.
ALLOWLIST: dict[str, str] = {
    "repro.sim.engine.Simulator":
        "captured via the System whole-graph deepcopy/pickle; the heap "
        "holds plain slotted Events and no pooled storage",
    "repro.sim.cpu.Core":
        "captured via the System whole-graph deepcopy (PR 4); "
        "TraceCursor handles its own copy semantics",
    "repro.dram.device.DRAMDevice":
        "fidelity-agnostic shell; per-channel state is captured through "
        "Substrate.capture_state",
    "repro.cache.mapi.MAPIPredictor":
        "captured via the System whole-graph deepcopy; tables are plain "
        "nested lists",
    "repro.cache.tagcache.TagCache":
        "offline Fig. 18 study structure; never part of a timed "
        "simulation graph",
    "repro.mem.mshr.MSHRFile":
        "captured via the System whole-graph deepcopy; entries are "
        "plain dataclasses",
}

#: Copy-control dunders that make a class snapshot-aware on their own.
_COPY_HOOKS = frozenset({"__deepcopy__", "__getstate__", "__reduce__",
                         "__reduce_ex__", "__copy__"})

#: Class kinds that hold no instance ``__init__`` state of their own.
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "IntFlag", "Flag",
                           "NamedTuple", "TypedDict"})


def _module_level_findings(
    rule: Rule, module: SourceModule
) -> Iterator[Finding]:
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = stmt.value
        if value is None or not is_mutable_container(value):
            continue
        names = [t.id for t in assign_targets(stmt) if isinstance(t, ast.Name)]
        if not names or names == ["__all__"]:
            continue
        yield module.finding(
            rule, stmt,
            f"module-level mutable state ({', '.join(names)}) is invisible "
            f"to snapshot capture; move it onto an owning object or make "
            f"it immutable (tuple/frozenset/Mapping)",
        )


def _has_snapshot_hooks(
    cls: ast.ClassDef,
    classmap: dict[str, ast.ClassDef],
    _seen: frozenset[str] = frozenset(),
) -> bool:
    methods = class_methods(cls)
    if _COPY_HOOKS & methods.keys():
        return True
    captures = [m for m in methods if m.startswith("capture")]
    restores = [m for m in methods if m.startswith("restore")]
    if captures and restores:
        return True
    # Hooks may be inherited from a base defined in the same module.
    for base in base_names(cls):
        parent = classmap.get(base)
        if parent is not None and base not in _seen:
            if _has_snapshot_hooks(parent, classmap, _seen | {cls.name}):
                return True
    return False


def _mutable_init_assign(cls: ast.ClassDef) -> ast.stmt | None:
    """First ``self.x = <mutable container>`` in ``__init__``, if any."""
    init = class_methods(cls).get("__init__")
    if init is None:
        return None
    for node in ast.walk(init):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not is_mutable_container(value):
            continue
        for target in assign_targets(node):
            if self_attr_target(target) is not None:
                return node
    return None


class SnapshotSafetyRule(Rule):
    id = "R2"
    name = "snapshot-safety"
    description = (
        "simulation classes holding mutable instance state must define "
        "capture/restore (or copy-control) hooks or be allowlisted; no "
        "module-level mutable state in simulation modules"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        if not module.in_package(*_SIM_PACKAGES):
            return
        yield from _module_level_findings(self, module)
        classmap = {
            n.name: n for n in ast.walk(module.tree)
            if isinstance(n, ast.ClassDef)
        }
        for node in classmap.values():
            if base_names(node) & _EXEMPT_BASES:
                continue
            if "dataclass" in decorator_names(node):
                continue  # no source __init__; state is field-declared
            stateful = _mutable_init_assign(node)
            if stateful is None:
                continue
            if _has_snapshot_hooks(node, classmap):
                continue
            dotted = f"{module.dotted_name}.{node.name}"
            if dotted in ALLOWLIST:
                continue
            yield module.finding(
                self, node,
                f"class {node.name} holds mutable instance state (first at "
                f"line {stateful.lineno}) but defines no capture/restore or "
                f"copy-control hooks; add them, or allowlist the class in "
                f"repro/analysis/rules/snapshot.py with a reason",
            )
