"""Shared implementation of Figs. 16 and 17 — read row-buffer hit rate.

The paper reports the row-buffer hit rate of *read accesses* for all six
variants.  Expected shape: DCA >= CD (DCA avoids read-read conflicts and
batches its held LRs); ROD with remapping may slightly exceed DCA (but
loses overall to turnarounds, Figs. 14/15); paper levels are ~60 % for the
set-associative and ~70 % for the direct-mapped organization under DCA.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    RunSpec,
    OrgFigure,
    Report,
    Results,
    format_table,
    grid_specs,
)
from repro.experiments.perworkload import VARIANTS, _label


def plan(organization: str, mixes: Sequence[int]) -> list[RunSpec]:
    return grid_specs(mixes, (organization,), remaps=(False, True))


def report(organization: str, title: str, results: Results,
           mixes: Sequence[int]) -> Report:

    rates: dict[str, float] = {}
    for design, remap in VARIANTS:
        vals = [results[RunSpec(design, organization, remap, mix_id=m)]
                .read_row_hit_rate for m in mixes]
        rates[_label(design, remap)] = sum(vals) / len(vals)

    rows = [[lab, f"{rates[lab] * 100:.1f}%"]
            for lab in [_label(d, r) for d, r in VARIANTS]]
    text = format_table(["variant", "read row-buffer hit rate"],
                        rows, title=title)
    data = {"mixes": list(mixes), "row_hit_rate": rates}

    checks = [
        ("all variants within a plausible band (20%..95%)",
         all(0.20 < v < 0.95 for v in rates.values())),
        ("DCA row-hit rate within 10% of CD or better",
         rates["DCA"] >= rates["CD"] - 0.10),
    ]
    return text, data, checks


FIGURES = (
    OrgFigure("fig16", "Fig. 16: read row-buffer hit rate, set-associative",
              "sa", plan, report),
    OrgFigure("fig17", "Fig. 17: read row-buffer hit rate, direct-mapped",
              "dm", plan, report),
)
