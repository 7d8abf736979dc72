"""R7 — engine state stays in the engine.

``Simulator.asap`` runs a callback inline only when it would be the next
event the loop pops.  That shortcut is order-identical only while every
``(time, seq)`` entry, the ``seq`` counter, the event count and the stop
flag move through ``sim/engine.py`` alone: a component that peeks at the
heap or bumps the counter itself can make an inline run differ from the
queued one.  This rule rejects loads and stores of the simulator's
private attributes outside that module.

A simulator is recognised by name, as R3 recognises enums: the names
``sim``, ``_sim`` and ``simulator``, bare or as an attribute
(``self.sim._heap``, ``system.sim._seq``).  Other objects keep their own
private names (the translator's ``self._seq`` is its access counter).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintRun, Rule, SourceModule

#: ``Simulator``'s private slots (``repro.sim.engine``).
_ENGINE_PRIVATE = frozenset({"_heap", "_seq", "_events_run",
                             "_stop_requested"})

#: Names under which a component holds its simulator.
_SIM_NAMES = frozenset({"sim", "_sim", "simulator"})


def _names_simulator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _SIM_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SIM_NAMES
    return False


class EngineStateRule(Rule):
    id = "R7"
    name = "engine-state"
    description = (
        "no load or store of Simulator's private state (_heap, _seq, "
        "_events_run, _stop_requested) outside sim/engine.py — the "
        "inline path of Simulator.asap rests on the engine owning it"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        if module.is_file("sim/engine.py"):
            return
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _ENGINE_PRIVATE
                    and _names_simulator(node.value)):
                yield module.finding(
                    self, node,
                    f"{node.attr} is the engine's own state; go through "
                    f"Simulator's methods (at/after/asap/stop, events_run, "
                    f"pending)",
                )
