"""Fig. 8 — average normalized weighted speedup of CD / ROD / DCA.

Paper result: normalized to CD, ROD achieves +9.2 % (set-associative) and
+8.6 % (direct-mapped); DCA achieves +16.4 % and +20.8 %.  Expected shape:
DCA > ROD > CD in both organizations, with DCA's margin larger for the
direct-mapped cache.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DESIGNS,
    Report,
    Results,
    RunSpec,
    SimParams,
    alone_specs,
    format_table,
    grid_specs,
    normalized_speedup_table,
)

ID = "fig08"
TITLE = "Fig. 8: average performance speedup (normalized to CD)"

#: the paper's bar heights, for side-by-side reporting
PAPER = {("sa", "CD"): 1.0, ("sa", "ROD"): 1.092, ("sa", "DCA"): 1.164,
         ("dm", "CD"): 1.0, ("dm", "ROD"): 1.086, ("dm", "DCA"): 1.208}


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return (grid_specs(mixes, ("sa", "dm"))
            + alone_specs("sa") + alone_specs("dm"))


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    data: dict = {"mixes": list(mixes), "speedups": {}}
    rows = []
    for org in ("sa", "dm"):
        table = normalized_speedup_table(
            results, mixes, org,
            variants=[(d, False) for d in DESIGNS])
        for design in DESIGNS:
            val = table[(design, False)]
            data["speedups"][f"{org}:{design}"] = val
            rows.append([org, design, f"{val:.3f}",
                         f"{PAPER[(org, design)]:.3f}"])

    text = format_table(
        ["org", "design", "speedup (this repro)", "speedup (paper)"],
        rows, title=TITLE)

    s = data["speedups"]
    checks = [
        ("SA: DCA > CD", s["sa:DCA"] > s["sa:CD"]),
        ("SA: DCA > ROD", s["sa:DCA"] > s["sa:ROD"]),
        ("SA: ROD >= CD (within 2%)", s["sa:ROD"] >= s["sa:CD"] * 0.98),
        ("DM: DCA > CD", s["dm:DCA"] > s["dm:CD"]),
        ("DM: DCA > ROD", s["dm:DCA"] > s["dm:ROD"]),
        ("DM: ROD >= CD (within 2%)", s["dm:ROD"] >= s["dm:CD"] * 0.98),
        ("DCA margin larger in DM than SA",
         s["dm:DCA"] / s["dm:CD"] > s["sa:DCA"] / s["sa:CD"]),
    ]
    return text, data, checks
