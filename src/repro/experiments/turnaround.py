"""Shared implementation of Figs. 14 and 15 — accesses per turnaround.

The paper reports read/write accesses per bus turnaround (higher is
better) for CD, ROD and DCA *without* remapping (it notes remapping does
not change turnaround counts).  Expected shape: CD and DCA process several
times more accesses per turnaround than ROD (paper: ROD ~ a third of CD;
DCA ~ CD).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DESIGNS,
    RunSpec,
    OrgFigure,
    Report,
    Results,
    format_table,
    grid_specs,
)
from repro.metrics.speedup import geomean


def plan(organization: str, mixes: Sequence[int]) -> list[RunSpec]:
    return grid_specs(mixes, (organization,))


def report(organization: str, title: str, results: Results,
           mixes: Sequence[int]) -> Report:

    apt: dict[str, float] = {}
    for design in DESIGNS:
        vals = [results[RunSpec(design, organization, False, mix_id=m)]
                .accesses_per_turnaround for m in mixes]
        apt[design] = geomean(vals)

    rows = [[d, f"{apt[d]:.1f}"] for d in DESIGNS]
    text = format_table(
        ["design", "accesses per turnaround (higher is better)"],
        rows, title=title)
    data = {"mixes": list(mixes), "accesses_per_turnaround": apt}

    checks = [
        ("CD >> ROD (ROD pays frequent turnarounds)",
         apt["CD"] > 1.4 * apt["ROD"]),
        ("DCA comparable to or better than CD", apt["DCA"] >= 0.9 * apt["CD"]),
        ("DCA >> ROD", apt["DCA"] > 1.4 * apt["ROD"]),
    ]
    return text, data, checks


FIGURES = (
    OrgFigure("fig14", "Fig. 14: accesses per turnaround, set-associative",
              "sa", plan, report),
    OrgFigure("fig15", "Fig. 15: accesses per turnaround, direct-mapped",
              "dm", plan, report),
)
