"""Shared implementation of Figs. 10 and 11 — per-workload speedups.

Both figures plot, for every Table I mix, the weighted speedup of all six
variants (CD/ROD/DCA, each with and without remapping) normalized to plain
CD on that mix; Fig. 10 is the set-associative organization, Fig. 11 the
direct-mapped one.  Paper expectation: the ordering trends of Figs. 8/9
hold across (nearly) all mixes.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    OrgFigure,
    Report,
    Results,
    RunSpec,
    alone_ipc_table,
    alone_specs,
    format_table,
    grid_specs,
    mix_weighted_speedup,
)
from repro.workloads.table1 import mix_name

VARIANTS = [("CD", False), ("ROD", False), ("DCA", False),
            ("CD", True), ("ROD", True), ("DCA", True)]


def _label(design: str, remap: bool) -> str:
    return ("XOR+" if remap else "") + design


def plan(organization: str, mixes: Sequence[int]) -> list[RunSpec]:
    return (grid_specs(mixes, (organization,), remaps=(False, True))
            + alone_specs(organization))


def report(organization: str, title: str, results: Results,
           mixes: Sequence[int]) -> Report:
    alone = alone_ipc_table(results)

    per_mix: dict[int, dict[str, float]] = {}
    for m in mixes:
        base = mix_weighted_speedup(
            results[RunSpec("CD", organization, False, mix_id=m)], alone)
        per_mix[m] = {}
        for design, remap in VARIANTS:
            spec = RunSpec(design, organization, remap, mix_id=m)
            per_mix[m][_label(design, remap)] = (
                mix_weighted_speedup(results[spec], alone) / base)

    labels = [_label(d, r) for d, r in VARIANTS]
    rows = []
    for m in mixes:
        rows.append([f"mix{m:02d}", mix_name(m)[:34]]
                    + [f"{per_mix[m][lab]:.3f}" for lab in labels])
    text = format_table(["mix", "benchmarks"] + labels, rows, title=title)

    data = {"mixes": list(mixes),
            "per_mix": {str(m): per_mix[m] for m in mixes}}

    n = len(mixes)
    dca_beats_cd = sum(per_mix[m]["DCA"] > 1.0 for m in mixes)
    dca_best = sum(
        max(per_mix[m]["DCA"], per_mix[m]["XOR+DCA"])
        >= max(per_mix[m][lab] for lab in labels) - 1e-9
        for m in mixes)
    checks = [
        (f"DCA beats CD on >=80% of mixes ({dca_beats_cd}/{n})",
         dca_beats_cd >= 0.8 * n),
        (f"a DCA variant is the best on >=60% of mixes ({dca_best}/{n})",
         dca_best >= 0.6 * n),
    ]
    return text, data, checks


FIGURES = (
    OrgFigure("fig10", "Fig. 10: per-workload speedup, set-associative "
              "(normalized to CD)", "sa", plan, report),
    OrgFigure("fig11", "Fig. 11: per-workload speedup, direct-mapped "
              "(normalized to CD)", "dm", plan, report),
)
