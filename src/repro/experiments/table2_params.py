"""Table II — system and die-stacked DRAM parameters (config check)."""

from __future__ import annotations

from typing import Sequence

from repro.config import ns, paper_config
from repro.experiments.common import (Report, Results, RunSpec, SimParams,
                                      format_table)

ID = "table2"
TITLE = "Table II: system and die-stacked DRAM parameters"


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return []


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    cfg = paper_config()
    t = cfg.timings
    cd_q = cfg.queues.for_design("CD")
    rod_q = cfg.queues.for_design("ROD")
    rows = [
        ["processor", "4 GHz, 8-wide, 192 ROB",
         f"{cfg.cpu.freq_ghz:g} GHz, {cfg.cpu.width}-wide, {cfg.cpu.rob_entries} ROB"],
        ["L1 I/D", "32 KB / 2-way, 2 cycles",
         f"{cfg.l1.size_bytes // 1024} KB / {cfg.l1.assoc}-way, {cfg.l1.latency_cycles} cycles"],
        ["L2", "8 MB, 20 cycles",
         f"{cfg.l2.size_bytes // 2**20} MB, {cfg.l2.latency_cycles} cycles"],
        ["L3 (DRAM cache)", "256 MB (240 MB data), 1/15 way",
         f"{cfg.dram_cache.size_bytes // 2**20} MB "
         f"({cfg.dram_cache.data_capacity // 2**20} MB data), "
         f"1/{cfg.dram_cache.sa_ways} way"],
        ["memory latency", "50 ns", f"{cfg.mainmem.latency_ps // 1000} ns"],
        ["tRCD-tCAS-tRP-tRAS", "8-8-8-30 ns",
         f"{t.tRCD}-{t.tCAS}-{t.tRP}-{t.tRAS} ps"],
        ["tWTR-tRTP-tRTW", "5-7.5-1.67 ns",
         f"{t.tWTR}-{t.tRTP}-{t.tRTW} ps"],
        ["tWR-tBURST", "15-3.33 ns", f"{t.tWR}-{t.tBURST} ps"],
        ["organization", "16 banks/rank, 1 rank/ch, 4 ch, 4 KB row",
         f"{cfg.org.banks_per_rank} banks/rank, {cfg.org.ranks_per_channel} rank/ch, "
         f"{cfg.org.channels} ch, {cfg.org.row_bytes // 1024} KB row"],
        ["read queue", "64 (32 ROD)/channel, DCA 75%/85%",
         f"{cd_q.read_entries} ({rod_q.read_entries} ROD), "
         f"{cfg.queues.lr_drain_low:.0%}/{cfg.queues.lr_drain_high:.0%}"],
        ["write queue", "64 (96 ROD)/channel, 50%/85%",
         f"{cd_q.write_entries} ({rod_q.write_entries} ROD), "
         f"{cfg.queues.write_low_watermark:.0%}/{cfg.queues.write_high_watermark:.0%}"],
    ]
    text = format_table(["parameter", "paper", "this config"], rows,
                          title=TITLE)
    data = {"paper_config": True}
    checks = [
        ("stacked timings match Table II",
         (t.tRCD, t.tCAS, t.tRP, t.tRAS) == (ns(8), ns(8), ns(8), ns(30))
         and (t.tWTR, t.tRTP, t.tRTW) == (ns(5), ns(7.5), ns(1.67))
         and (t.tWR, t.tBURST) == (ns(15), ns(3.33))),
        ("geometry matches Table II",
         cfg.org.channels == 4 and cfg.org.banks_per_rank == 16
         and cfg.org.row_bytes == 4096
         and cfg.dram_cache.size_bytes == 256 * 2**20
         and cfg.dram_cache.data_capacity == 240 * 2**20),
        ("queue sizes match Table II",
         cd_q.read_entries == 64 and cd_q.write_entries == 64
         and rod_q.read_entries == 32 and rod_q.write_entries == 96),
    ]
    return text, data, checks
