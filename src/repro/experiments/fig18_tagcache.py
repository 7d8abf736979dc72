"""Fig. 18 — DRAM tag accesses vs. SRAM tag-cache size.

The paper replays DRAM-cache tag traffic through an ATCache-style SRAM tag
cache (Huang & Nagarajan, PACT'14) and counts the *DRAM* tag accesses that
remain.  Counter-intuitively the tag cache does not reduce DRAM tag
traffic: tag blocks have poor temporal locality (the tag cache is smaller
than the tag footprint of the L2's own contents), so nearly every request
misses and pays (1 + prefetch-degree) DRAM tag reads plus dirty tag-block
writebacks.  For a 256 MB cache, even 192 KB of tag cache roughly
*doubles* tag traffic versus no tag cache.

This experiment is functional (no timing).  For each Table I mix,
:func:`tag_requests` generates the per-core traces and filters them
through the L2 once, giving the ordered stream of DRAM-cache tag lookups
(one segment per core): each L2 miss's demand read, then the writeback of
the dirty victim it displaces.  The tag cache reads only the set-associative tag layout, never
the DRAM cache's contents, so that one stream serves every size:
:func:`tag_traffic` replays it through a fresh tag cache per size, and the
report normalizes DRAM tag accesses to the no-tag-cache baseline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.tagcache import TagCache
from repro.config import scaled_config
from repro.experiments.common import (Report, Results, RunSpec, SimParams,
                                      format_table)
from repro.mem.sram import SRAMCache, interleave
from repro.workloads.generator import make_trace
from repro.workloads.table1 import mix_profiles

ID = "fig18"
TITLE = "Fig. 18: DRAM tag accesses vs tag-cache size (normalized to none)"

#: tag-cache sizes swept by the paper's figure
SIZES_KB = (0, 32, 64, 96, 128, 192)


def tag_requests(mix_id: int, params: SimParams,
                 accesses_per_core: int = 40_000
                 ) -> list[tuple[NDArray[np.int64], NDArray[np.bool_]]]:
    """The DRAM-cache tag lookups of one mix, in order, as one pair of
    columns (addresses, write flags) per core.

    Each core's trace is filtered through the shared L2: an L2 miss looks
    up its block's tags (a read), then, if its fill displaced a dirty
    line, the victim's tags (a write).  Filtering one core at a time keeps
    only that core's miss and victim columns alive next to the stream.
    """
    l2 = SRAMCache(scaled_config(params.capacity_scale).l2)
    return [interleave(*l2.filter_traces(
                [make_trace(p, seed=mix_id * 100 + i, core_offset=i << 44,
                            footprint_scale=params.footprint_scale)],
                accesses_per_core))
            for i, p in enumerate(mix_profiles(mix_id))]


def tag_traffic(mix_id: int, params: SimParams,
                sizes_kb: Sequence[int] = SIZES_KB,
                accesses_per_core: int = 40_000) -> dict[int, int]:
    """DRAM tag accesses of one mix behind each tag-cache size (KB)."""
    streams = tag_requests(mix_id, params, accesses_per_core)
    geometry = DRAMCacheArray(
        scaled_config(params.capacity_scale).dram_cache, "sa")
    counts: dict[int, int] = {}
    for kb in sizes_kb:
        tc = TagCache(geometry, kb * 1024)
        for addrs, writes in streams:
            tc.replay(addrs, writes)
        counts[kb] = tc.stats.dram_tag_accesses
    return counts


def plan(mixes: Sequence[int]) -> list[RunSpec]:
    return []      # functional replay in the report, not grid points


def report(results: Results, params: SimParams,
           mixes: Sequence[int]) -> Report:
    use = list(mixes)[:3] or [1]
    counts = dict.fromkeys(SIZES_KB, 0)
    for m in use:
        for kb, n in tag_traffic(m, params).items():
            counts[kb] += n
    base = counts[0]
    norm = {kb: counts[kb] / base for kb in SIZES_KB}

    rows = [[f"{kb} KB" if kb else "no tag cache",
             counts[kb], f"{norm[kb]:.2f}x"] for kb in SIZES_KB]
    text = format_table(
        ["tag cache", "DRAM tag accesses", "normalized"],
        rows, title=f"{TITLE}  [mixes {use}]")
    data = {"mixes": use, "normalized": {str(k): v for k, v in norm.items()},
            "counts": {str(k): v for k, v in counts.items()}}

    checks = [
        ("tag caches increase DRAM tag traffic (all sizes > 1.0x)",
         all(norm[kb] > 1.0 for kb in SIZES_KB if kb)),
        ("~2x traffic at the largest size (>1.5x)",
         norm[SIZES_KB[-1]] > 1.5),
        ("traffic shrinks as the tag cache grows (hit rate improves)",
         counts[SIZES_KB[-1]] <= counts[SIZES_KB[1]]),
    ]
    return text, data, checks


def run(params: SimParams, mixes: Sequence[int], jobs: int = 0) -> Report:
    """The whole figure in this process (``jobs`` is accepted, unused)."""
    return report({}, params, mixes)
