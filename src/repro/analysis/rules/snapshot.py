"""R2 — no hidden globals: simulation modules hold no mutable module state.

Results must be a pure function of a run's inputs.  Warm-state forks run
several systems one after another in one process, and ``run_grid``'s
process pool runs many points per worker.  Mutable module-level state
would carry over from one run into the next and make a result depend on
which runs happened to share its process, as a class-global access age
counter on ``Access`` once did.  State belongs on an owning object (the
per-system ``Translator`` holds that counter now); module constants must
be immutable.  Scoped to the simulation packages.
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
    is_mutable_container,
)

_SIM_PACKAGES = ("sim", "dram", "cache", "mem")


class HiddenGlobalsRule(Rule):
    id = "R2"
    name = "no-hidden-globals"
    description = (
        "no module-level mutable state in simulation modules (results "
        "must not depend on which runs share a process)"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        if not module.in_package(*_SIM_PACKAGES):
            return
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None or not is_mutable_container(value):
                continue
            names = [t.id for t in assign_targets(stmt)
                     if isinstance(t, ast.Name)]
            if not names or names == ["__all__"]:
                continue
            yield module.finding(
                self, stmt,
                f"module-level mutable state ({', '.join(names)}) is shared "
                f"by every run in the process; move it onto an owning "
                f"object or make it immutable (tuple/frozenset/Mapping)",
            )
