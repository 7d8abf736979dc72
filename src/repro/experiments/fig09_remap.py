"""Fig. 9 — average speedup with the XOR permutation remapping added.

All designs gain the Zhang et al. remapping; speedups stay normalized to
plain CD (no remapping).  Paper: XOR+CD reaches +16.2 % (SA) / +22.1 %
(DM); XOR+ROD is the *worst of the remapped designs* (it already avoided
RRC, so remapping only leaves its turnaround penalty); XOR+DCA leads with
+23.7 % (SA) / +29 % (DM), i.e. still ~7 % over XOR+CD.
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

ID = "fig09"
TITLE = "Fig. 9: average speedup with remapping (normalized to CD w/o remap)"

PAPER = {("sa", "CD"): 1.162, ("sa", "ROD"): 1.15, ("sa", "DCA"): 1.237,
         ("dm", "CD"): 1.221, ("dm", "ROD"): 1.17, ("dm", "DCA"): 1.29}


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return (grid_specs(mixes, ("sa", "dm"), remaps=(False, True))
            + alone_specs("sa") + alone_specs("dm"))


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    data: dict = {"mixes": list(mixes), "speedups": {}}
    rows = []
    for org in ("sa", "dm"):
        variants = [(d, True) for d in DESIGNS]
        table = normalized_speedup_table(results, mixes, org,
                                         variants=variants)
        for design in DESIGNS:
            val = table[(design, True)]
            data["speedups"][f"{org}:XOR+{design}"] = val
            rows.append([org, f"XOR+{design}", f"{val:.3f}",
                         f"~{PAPER[(org, design)]:.2f}"])

    text = format_table(
        ["org", "design", "speedup (this repro)", "speedup (paper)"],
        rows, title=TITLE)

    s = data["speedups"]
    checks = [
        ("SA: XOR+DCA best", s["sa:XOR+DCA"] > s["sa:XOR+CD"]
         and s["sa:XOR+DCA"] > s["sa:XOR+ROD"]),
        ("SA: XOR+CD >= XOR+ROD (remap fixes CD's RRC, ROD keeps turnarounds)",
         s["sa:XOR+CD"] >= s["sa:XOR+ROD"] * 0.99),
        ("DM: XOR+DCA best", s["dm:XOR+DCA"] > s["dm:XOR+CD"]
         and s["dm:XOR+DCA"] > s["dm:XOR+ROD"]),
        ("SA: XOR+DCA still beats XOR+CD by >2%",
         s["sa:XOR+DCA"] / s["sa:XOR+CD"] > 1.02),
        ("DM: XOR+DCA still beats XOR+CD by >2%",
         s["dm:XOR+DCA"] / s["dm:XOR+CD"] > 1.02),
    ]
    return text, data, checks
