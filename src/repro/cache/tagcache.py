"""ATCache-style SRAM tag cache (Huang & Nagarajan, PACT'14) — Fig. 18 study.

A tag cache holds recently used DRAM-cache *tag blocks* in SRAM so a
request can skip the in-DRAM tag read.  On a tag-cache miss the needed tag
block is fetched from DRAM **and neighbouring tag blocks are prefetched**
(ATCache gets most of its benefit from spatial prefetch, since tag-block
temporal locality is poor — the tag cache is smaller than the tag footprint
of the L2's own contents).

The paper's Fig. 18 observation: adding a tag cache does *not* reduce DRAM
tag traffic — for a 256 MB cache even a 192 KB tag cache roughly *doubles*
DRAM tag accesses, because every tag-cache miss costs (1 + prefetch_degree)
DRAM tag reads plus dirty tag-block writebacks, while the avoided lookups
are few.  This model reproduces that accounting.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.organizations import Index
from repro.metrics.registry import MetricGroup, derived


class TagCacheStats(MetricGroup):
    """Tag-traffic accounting (the Fig. 18 metric is ``dram_tag_accesses``)."""

    COUNTERS = (
        "requests",
        "tag_hits",
        "dram_tag_reads",         # demand fills + prefetch fills
        "dram_tag_writes",        # dirty tag-block writebacks
        "prefetch_fills",
    )

    @derived
    def dram_tag_accesses(self) -> int:
        return self.dram_tag_reads + self.dram_tag_writes

    @derived
    def hit_rate(self) -> float:
        return self.tag_hits / self.requests if self.requests else 0.0


class TagCache:
    """A set-associative SRAM cache of 64 B DRAM-cache tag blocks.

    Each SRAM set is an insertion-ordered ``{tag_block: dirty}`` dict
    whose key order is the LRU order, least recently used first, so hits,
    fills and evictions are O(1).  The cache reads only the array's
    geometry, never its contents.

    :meth:`replay` is the one code path: it maps a chunk of requests to
    tag blocks and SRAM sets in numpy, then runs one Python loop over the
    chunk with the LRU inlined.  :meth:`access` replays one request.

    Parameters
    ----------
    size_bytes:
        SRAM capacity.  ``0`` disables the tag cache (the no-tag-cache
        baseline: every request pays exactly its in-DRAM tag accesses).
    assoc:
        Ways per SRAM set.
    prefetch_degree:
        Number of adjacent tag blocks fetched alongside a demand miss.
    """

    BLOCK = 64
    #: requests mapped per numpy pass of :meth:`replay`: the chunk's
    #: Python-int columns take about 1 MB, where a whole Fig. 18 stream's
    #: would take tens of MB
    CHUNK = 4096

    def __init__(self, array: DRAMCacheArray, size_bytes: int,
                 assoc: int = 8, prefetch_degree: int = 3):
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if assoc < 1:
            raise ValueError(f"assoc must be >= 1, got {assoc}")
        if prefetch_degree < 0:
            raise ValueError(
                f"prefetch_degree must be >= 0, got {prefetch_degree}")
        self.array = array
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.prefetch_degree = prefetch_degree
        self.stats = TagCacheStats()
        self.num_sets = (max(1, size_bytes // (self.BLOCK * assoc))
                         if size_bytes else 0)
        # SRAM set idx -> {tag_block: dirty}, least recently used first.
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.num_sets)]

    @property
    def enabled(self) -> bool:
        return self.size_bytes > 0

    # -- geometry (scalars or int64 arrays) ----------------------------------------

    def _set_of(self, tag_block: Index) -> Index:
        # Tag blocks are regularly spaced in array-address space (every
        # 16 blocks in the set-associative layout); fold the high bits so
        # they spread over all SRAM sets instead of aliasing into a few.
        h = tag_block ^ (tag_block >> 4) ^ (tag_block >> 11)
        return h % self.num_sets

    def _tag_block_of_set(self, set_idx: Index) -> Index:
        """SRAM-cache key for the tag block guarding ``set_idx``."""
        return self.array.tag_location_of_set(set_idx) // self.BLOCK

    # -- the request-facing operations ---------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """Process the tag lookup of one DRAM-cache request.

        Returns True if the tags were served from SRAM (no DRAM tag read
        needed).  See :meth:`replay` for the accounting.
        """
        hits = self.stats.tag_hits
        self.replay(np.array([addr], dtype=np.int64), np.array([is_write]))
        return self.stats.tag_hits > hits

    def replay(self, addrs: NDArray[np.int64],
               writes: NDArray[np.bool_]) -> None:
        """Process the tag lookups of a request stream, in order.

        ``writes[i]`` marks a lookup that will update the tag block
        (replacement bits / dirty bits / insertion), which dirties the
        SRAM copy.

        On a miss, the demand tag block is fetched and the tag blocks of
        the *next* ``prefetch_degree`` sets are prefetched — consecutive
        physical blocks map to consecutive sets, so streams hit on
        prefetched neighbours (ATCache's spatial-locality benefit).  A
        neighbour already cached keeps its LRU position.

        Without a tag cache, each request pays one DRAM tag read (counted
        here) and its tag *writes* ride the normal write path (counted by
        the caller's translation, not here) — the Fig. 18 normalization
        divides by exactly this baseline.
        """
        stats = self.stats
        n = len(addrs)
        stats.requests += n
        if not self.size_bytes:
            stats.dram_tag_reads += n
            return
        # Row r of a chunk's geometry is request r's sets ``set0 + k`` for
        # k = 0..prefetch_degree: the demand set, then the neighbours it
        # prefetches (wrapping modulo the set count).  Rows are flattened
        # so the loop indexes plain int lists.
        step = np.arange(self.prefetch_degree + 1, dtype=np.int64)
        width = len(step)
        sets, assoc = self._sets, self.assoc
        hits = demand = prefetched = written = 0
        for lo in range(0, n, self.CHUNK):
            set0 = self.array.set_index(addrs[lo:lo + self.CHUNK])
            blocks = self._tag_block_of_set(set0[:, None] + step)
            tag_blocks = blocks.ravel().tolist()
            sram_sets = self._set_of(blocks).ravel().tolist()
            for i, is_write in zip(range(0, len(tag_blocks), width),
                                   writes[lo:lo + self.CHUNK].tolist()):
                tag_block = tag_blocks[i]
                sram = sets[sram_sets[i]]
                dirty = sram.pop(tag_block, None)
                if dirty is not None:
                    hits += 1
                    sram[tag_block] = dirty or is_write
                    continue
                # Demand fill, evicting the LRU block (a dirty one is
                # written back to DRAM) ...
                demand += 1
                if len(sram) >= assoc and sram.pop(next(iter(sram))):
                    written += 1
                sram[tag_block] = is_write
                # ... plus the neighbours' tag blocks that are not cached.
                for k in range(i + 1, i + width):
                    neighbour = tag_blocks[k]
                    sram = sets[sram_sets[k]]
                    if neighbour not in sram:
                        prefetched += 1
                        if len(sram) >= assoc and sram.pop(next(iter(sram))):
                            written += 1
                        sram[neighbour] = False
        stats.tag_hits += hits
        stats.dram_tag_reads += demand + prefetched
        stats.prefetch_fills += prefetched
        stats.dram_tag_writes += written
