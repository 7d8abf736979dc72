"""Fig. 19 — speedups with Lee et al.'s DRAM-aware LLC writeback installed.

Lee's policy (see :mod:`repro.mem.llc_writeback`) batches same-DRAM-row
dirty lines out of the L2 whenever a dirty eviction occurs.  The paper's
point: the scheme targets conventional-DRAM write interference and cannot
see the tag-access problems unique to DRAM caches, so a DCA controller
still improves on a Lee-equipped baseline — by ~7 % in the direct-mapped
organization ("LEE+RWC can continue to outperform LEE by 7%").

Interpretation used here (documented in DESIGN.md §5): all designs run
with Lee's writeback in the L2; speedups are normalized to LEE+CD.
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

ID = "fig19"
TITLE = "Fig. 19: speedup under DRAM-aware writeback (normalized to LEE+CD)"


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return (grid_specs(mixes, ("sa", "dm"), lee_writeback=True)
            + alone_specs("sa", lee_writeback=True)
            + alone_specs("dm", lee_writeback=True))


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    data: dict = {"mixes": list(mixes), "speedups": {}}
    rows = []
    for org in ("sa", "dm"):
        table = normalized_speedup_table(
            results, mixes, org,
            variants=[(d, False) for d in DESIGNS],
            lee_writeback=True)
        for design in DESIGNS:
            val = table[(design, False)]
            data["speedups"][f"{org}:LEE+{design}"] = val
            rows.append([org, f"LEE+{design}", f"{val:.3f}"])

    text = format_table(["org", "variant", "speedup vs LEE+CD"],
                        rows, title=TITLE)
    s = data["speedups"]
    checks = [
        ("DM: LEE+DCA beats LEE+CD (paper: ~+7%)",
         s["dm:LEE+DCA"] > 1.0),
        ("SA: LEE+DCA beats LEE+CD", s["sa:LEE+DCA"] > 1.0),
        ("DM: LEE+DCA best variant",
         s["dm:LEE+DCA"] >= max(s["dm:LEE+CD"], s["dm:LEE+ROD"])),
    ]
    return text, data, checks
