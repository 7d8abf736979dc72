"""Table I — the 30 four-core workload mixes (transcription check + stats)."""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (Report, Results, RunSpec, SimParams,
                                      format_table)
from repro.workloads.profiles import PROFILES
from repro.workloads.table1 import TABLE1_MIXES, mix_name

ID = "table1"
TITLE = "Table I: workload groupings"


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return []


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    rows = []
    for m in sorted(TABLE1_MIXES):
        names = TABLE1_MIXES[m]
        apki = sum(PROFILES[n].l2_apki for n in names)
        wr = sum(PROFILES[n].l2_apki * PROFILES[n].store_fraction
                 for n in names) / apki
        rows.append([m, mix_name(m), f"{apki:.0f}", f"{wr * 100:.0f}%"])
    text = format_table(
        ["mix", "benchmarks", "sum L2 APKI", "store share"],
        rows, title=TITLE)
    data = {"mixes": {str(m): list(TABLE1_MIXES[m]) for m in TABLE1_MIXES}}

    used = {n for names in TABLE1_MIXES.values() for n in names}
    checks = [
        ("30 mixes", len(TABLE1_MIXES) == 30),
        ("every mix has 4 benchmarks",
         all(len(v) == 4 for v in TABLE1_MIXES.values())),
        ("all 11 paper benchmarks appear", used == set(PROFILES)),
    ]
    return text, data, checks
