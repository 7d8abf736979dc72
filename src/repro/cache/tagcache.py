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

from repro.cache.dramcache import DRAMCacheArray
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
        self._sets: dict[int, dict[int, bool]] = {}
        # DRAM-cache set idx -> (tag block, SRAM set); pure geometry.
        self._where: dict[int, tuple[int, int]] = {}

    @property
    def enabled(self) -> bool:
        return self.size_bytes > 0

    # -- geometry ----------------------------------------------------------------

    def _set_of(self, tag_block: int) -> int:
        # Tag blocks are regularly spaced in array-address space (every
        # 16 blocks in the set-associative layout); fold the high bits so
        # they spread over all SRAM sets instead of aliasing into a few.
        h = tag_block ^ (tag_block >> 4) ^ (tag_block >> 11)
        return h % self.num_sets

    def _tag_block_of_set(self, set_idx: int) -> int:
        """SRAM-cache key for the tag block guarding ``set_idx``."""
        return self.array.tag_location_of_set(set_idx) // self.BLOCK

    def _locate(self, set_idx: int) -> tuple[int, int]:
        """``(tag block, SRAM set)`` of DRAM-cache set ``set_idx``."""
        where = self._where.get(set_idx)
        if where is None:
            tag_block = self._tag_block_of_set(set_idx)
            where = self._where[set_idx] = (tag_block,
                                            self._set_of(tag_block))
        return where

    # -- internals ---------------------------------------------------------------

    def _insert(self, tag_block: int, sram_set: int, dirty: bool) -> None:
        """Fill ``tag_block``, which is not cached, as most recently used."""
        s = self._sets.get(sram_set)
        if s is None:
            s = self._sets[sram_set] = {}
        elif len(s) >= self.assoc:
            # Evict LRU; a dirty tag block must be written back to DRAM.
            if s.pop(next(iter(s))):
                self.stats.dram_tag_writes += 1
        s[tag_block] = dirty

    # -- the request-facing operation ---------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """Process the tag lookup of one DRAM-cache request.

        Returns True if the tags were served from SRAM (no DRAM tag read
        needed).  ``is_write`` marks lookups that will update the tag block
        (replacement bits / dirty bits / insertion), which dirties the
        SRAM copy.

        On a miss, the demand tag block is fetched and the tag blocks of
        the *next* ``prefetch_degree`` sets are prefetched — consecutive
        physical blocks map to consecutive sets, so streams hit on
        prefetched neighbours (ATCache's spatial-locality benefit).

        Without a tag cache, the request pays one DRAM tag read (counted
        here) and its tag *writes* ride the normal write path (counted by
        the caller's translation, not here) — the Fig. 18 normalization
        divides by exactly this baseline.
        """
        stats = self.stats
        stats.requests += 1
        if not self.size_bytes:
            stats.dram_tag_reads += 1
            return False
        set_idx = self.array.set_index(addr)
        tag_block, sram_set = self._locate(set_idx)
        s = self._sets.get(sram_set)
        if s is not None:
            dirty = s.pop(tag_block, None)
            if dirty is not None:
                stats.tag_hits += 1
                s[tag_block] = dirty or is_write
                return True
        # Demand fill ...
        stats.dram_tag_reads += 1
        self._insert(tag_block, sram_set, is_write)
        # ... plus spatial prefetch of the neighbouring sets' tag blocks.
        # A neighbour already cached keeps its LRU position.
        for i in range(1, self.prefetch_degree + 1):
            neighbour, n_set = self._locate(set_idx + i)
            ns = self._sets.get(n_set)
            if ns is None or neighbour not in ns:
                stats.dram_tag_reads += 1
                stats.prefetch_fills += 1
                self._insert(neighbour, n_set, False)
        return False
