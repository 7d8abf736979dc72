"""R4 — estimate purity: ``estimate_*`` methods must not assign ``self.*``.

An estimate answers "when would this access start?" without committing
it; only ``issue`` may advance state.  PR 5 learned this the hard way:
an early command-model draft synchronised scratch state inside its
estimate path, so merely *considering* a candidate bent subsequent
timing.  This rule pins that lesson: any method whose name matches
``estimate_*`` / ``_estimate*`` may not assign, augment or
annotate-assign a ``self.`` attribute.  ``Channel.estimate_burst_start``
satisfies it by construction — it runs ``issue`` on a copy.

A write no caller can observe may be suppressed on its own line with a
``dca-lint: disable`` pragma naming R4 and a comment saying why it is
pure.
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
    self_attr_target,
)


def _is_estimate_method(name: str) -> bool:
    return name.startswith("estimate_") or name.startswith("_estimate")


class EstimatePurityRule(Rule):
    id = "R4"
    name = "estimate-purity"
    description = (
        "estimate_* methods must not assign to self.* — probing a "
        "candidate must never bend subsequent timing (PR 5 rollback)"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_estimate_method(func.name):
                continue
            for node in ast.walk(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                    continue
                for target in assign_targets(node):
                    attr = self_attr_target(target)
                    if attr is not None:
                        yield module.finding(
                            self, node,
                            f"{func.name}() assigns self.{attr}; estimates "
                            f"must be pure (issue() is where state moves). "
                            f"If no caller can observe the write, suppress "
                            f"R4 on this line with a 'dca-lint: disable' "
                            f"pragma and justify in a comment",
                        )
