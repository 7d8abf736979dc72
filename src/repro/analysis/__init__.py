"""dca-lint: repo-specific static analysis for the DCA reproduction.

The simulator's correctness rests on invariants that ordinary linters do
not know about: determinism (results must be bit-reproducible), no hidden
globals (no mutable module state shared by the runs in one process),
hot-path hygiene (``__slots__`` on hot classes), estimate
purity (probing must never bend results), metrics discipline (counters
flow through the registry), schema discipline (version bumps are
documented) and engine state (the event queue's ``(time, seq)``
accounting stays in the engine).  PRs 4-6 each fixed a bug from one of
these classes by hand; this package makes them machine-checked.

Usage::

    dca-lint src                 # lint the tree, exit 1 on findings
    dca-lint --list-rules        # describe every rule
    dca-lint --format json src   # machine-readable output

Suppressions (see DESIGN.md "Static analysis & invariants")::

    x = time.time()   # dca-lint: disable=R1
    # dca-lint: disable-file=R3   (anywhere in the file, whole file)
"""

from repro.analysis.core import (
    Finding,
    LintRun,
    ProjectRule,
    Rule,
    SourceModule,
    all_rules,
)

__all__ = [
    "Finding",
    "LintRun",
    "ProjectRule",
    "Rule",
    "SourceModule",
    "all_rules",
]
