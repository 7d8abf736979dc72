"""ATCache-style SRAM tag cache (Fig. 18 model)."""

import random

import numpy as np
import pytest

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.tagcache import TagCache, TagCacheStats
from repro.config import DRAMCacheGeometry

GEOM = DRAMCacheGeometry(size_bytes=8 * 2**20)


@pytest.fixture
def array():
    return DRAMCacheArray(GEOM, "sa")


@pytest.mark.parametrize("kwargs, name", [
    ({"size_bytes": -1}, "size_bytes"),
    ({"size_bytes": 1024, "assoc": 0}, "assoc"),
    ({"size_bytes": 1024, "prefetch_degree": -1}, "prefetch_degree"),
])
def test_invalid_arguments_raise(array, kwargs, name):
    with pytest.raises(ValueError, match=name):
        TagCache(array, **kwargs)


class TestDisabled:
    def test_size_zero_counts_every_lookup(self, array):
        tc = TagCache(array, 0)
        assert not tc.enabled
        for i in range(10):
            assert not tc.access(i * 64, False)
        assert tc.stats.dram_tag_reads == 10
        assert tc.stats.dram_tag_accesses == 10


class TestHitPath:
    def test_repeat_access_hits(self, array):
        tc = TagCache(array, 32 * 1024)
        assert not tc.access(0x4000, False)   # demand miss
        assert tc.access(0x4000, False)       # SRAM hit
        assert tc.stats.tag_hits == 1

    def test_same_set_same_tag_block(self, array):
        """Two blocks of one set share the tag block: second lookup hits."""
        tc = TagCache(array, 32 * 1024)
        a = array.sa.block_addr(5, 1) * 64
        b = array.sa.block_addr(5, 2) * 64
        tc.access(a, False)
        assert tc.access(b, False)

    def test_prefetch_covers_next_sets(self, array):
        """Sequential blocks -> consecutive sets -> prefetched tag blocks."""
        tc = TagCache(array, 64 * 1024, prefetch_degree=3)
        tc.access(0 * 64, False)    # set 0; prefetches sets 1..3
        assert tc.access(1 * 64, False)
        assert tc.access(2 * 64, False)
        assert tc.access(3 * 64, False)
        assert not tc.access(4 * 64, False)  # beyond prefetch degree

    def test_prefetch_fills_counted(self, array):
        tc = TagCache(array, 64 * 1024, prefetch_degree=3)
        tc.access(0, False)
        assert tc.stats.prefetch_fills == 3
        assert tc.stats.dram_tag_reads == 4   # demand + 3 prefetch


class TestDirtyWriteback:
    @staticmethod
    def _colliding_sets(tc, array, n):
        """DRAM-cache set indices whose tag blocks share one SRAM set."""
        target = tc._set_of(tc._tag_block_of_set(0))
        found = [0]
        s = 1
        while len(found) < n:
            if tc._set_of(tc._tag_block_of_set(s)) == target:
                found.append(s)
            s += 1
        return found

    def test_write_lookup_dirties_block(self, array):
        tc = TagCache(array, 512, assoc=2, prefetch_degree=0)
        sets = self._colliding_sets(tc, array, 3)
        tc.access(array.sa.block_addr(sets[0], 1) * 64, is_write=True)
        # Evict it by filling its SRAM set with other tag blocks.
        tc.access(array.sa.block_addr(sets[1], 1) * 64, False)
        tc.access(array.sa.block_addr(sets[2], 1) * 64, False)
        assert tc.stats.dram_tag_writes >= 1

    def test_clean_eviction_free(self, array):
        tc = TagCache(array, 512, assoc=2, prefetch_degree=0)
        sets = self._colliding_sets(tc, array, 3)
        for s in sets:
            tc.access(array.sa.block_addr(s, 1) * 64, is_write=False)
        assert tc.stats.dram_tag_writes == 0


class TestTrafficClaim:
    def test_small_tag_cache_amplifies_traffic(self, array):
        """The Fig. 18 effect: random tag traffic + prefetch > baseline."""
        import random
        rng = random.Random(1)
        base = TagCache(array, 0)
        small = TagCache(array, 32 * 1024, prefetch_degree=3)
        addrs = [rng.randrange(0, GEOM.data_capacity) & ~63
                 for _ in range(20_000)]
        for a in addrs:
            base.access(a, False)
            small.access(a, False)
        assert small.stats.dram_tag_accesses > base.stats.dram_tag_accesses

    def test_streaming_tag_cache_hit_rate(self, array):
        tc = TagCache(array, 128 * 1024, prefetch_degree=3)
        for i in range(4000):
            tc.access(i * 64, False)
        assert tc.stats.hit_rate > 0.6   # spatial prefetch pays off


class _StampLRUTagCache:
    """Reference tag cache: per-set entry lists, LRU victim by ``min`` over
    global access stamps (the layout the dict-ordered sets replaced)."""

    BLOCK = 64

    def __init__(self, array, size_bytes, assoc, prefetch_degree):
        self.array = array
        self.assoc = assoc
        self.prefetch_degree = prefetch_degree
        self.stats = TagCacheStats()
        self.num_sets = (max(1, size_bytes // (self.BLOCK * assoc))
                         if size_bytes else 0)
        self.sets = {}   # SRAM set -> list of [tag_block, dirty, stamp]
        self.clock = 0

    def _tag_block(self, set_idx):
        a = self.array
        if a.is_direct_mapped:
            return a.dm.tad_array_addr(set_idx % a.dm.num_entries) // 64
        return a.sa.tag_array_addr(set_idx % a.sa.num_sets) // 64

    def _set(self, tag_block):
        h = tag_block ^ (tag_block >> 4) ^ (tag_block >> 11)
        return self.sets.setdefault(h % self.num_sets, [])

    def _lookup(self, tag_block):
        for entry in self._set(tag_block):
            if entry[0] == tag_block:
                return entry
        return None

    def _insert(self, tag_block, dirty):
        s = self._set(tag_block)
        self.clock += 1
        for entry in s:
            if entry[0] == tag_block:
                entry[1] = entry[1] or dirty
                entry[2] = self.clock
                return
        if len(s) >= self.assoc:
            victim = min(s, key=lambda e: e[2])
            s.remove(victim)
            if victim[1]:
                self.stats.dram_tag_writes += 1
        s.append([tag_block, dirty, self.clock])

    def access(self, addr, is_write):
        self.stats.requests += 1
        if not self.num_sets:
            self.stats.dram_tag_reads += 1
            return False
        b = addr // 64
        a = self.array
        set_idx = (a.dm.entry_index(b) if a.is_direct_mapped
                   else a.sa.set_index(b))
        tag_block = self._tag_block(set_idx)
        entry = self._lookup(tag_block)
        if entry is not None:
            self.stats.tag_hits += 1
            self.clock += 1
            entry[2] = self.clock
            entry[1] = entry[1] or is_write
            return True
        self.stats.dram_tag_reads += 1
        self._insert(tag_block, is_write)
        for i in range(1, self.prefetch_degree + 1):
            neighbour = self._tag_block(set_idx + i)
            if self._lookup(neighbour) is None:
                self.stats.dram_tag_reads += 1
                self.stats.prefetch_fills += 1
                self._insert(neighbour, False)
        return False


def _requests(seed, n=4000, span=2048, first=0):
    """Seeded ``(addr, is_write)`` stream over blocks ``first ..
    first + span - 1``, mixing random blocks, sequential runs and
    short-range repeats, so hits, prefetch hits and dirty evictions all
    occur."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        r = rng.random()
        if r < 0.2 and out:
            addr = out[-rng.randrange(1, min(8, len(out)) + 1)][0]
            out.append((addr, rng.random() < 0.3))
        else:
            start = rng.randrange(span)
            out.extend(((first + (start + k) % span) * 64, rng.random() < 0.3)
                       for k in range(8 if r < 0.5 else 1))
    return out[:n]


def _check_against_reference(array, stream, assoc, prefetch_degree,
                             sram_sets, monkeypatch):
    """Drive ``access`` and the stamp/``min`` reference in lockstep, then
    ``replay`` the stream in chunks that do not divide it: equal stats,
    and the same SRAM contents (LRU key order, dirty bits) as ``access``."""
    size = sram_sets * TagCache.BLOCK * assoc
    tc = TagCache(array, size, assoc, prefetch_degree)
    ref = _StampLRUTagCache(array, size, assoc, prefetch_degree)
    for addr, is_write in stream:
        assert tc.access(addr, is_write) == ref.access(addr, is_write)
    assert tc.stats.snapshot() == ref.stats.snapshot()

    monkeypatch.setattr(TagCache, "CHUNK", 997)
    assert len(stream) % TagCache.CHUNK
    batched = TagCache(array, size, assoc, prefetch_degree)
    addrs, writes = zip(*stream)
    batched.replay(np.array(addrs, dtype=np.int64), np.array(writes))
    assert batched.stats.snapshot() == ref.stats.snapshot()
    assert ([list(s.items()) for s in batched._sets]
            == [list(s.items()) for s in tc._sets])
    return tc


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sram_sets", [4, 64])
@pytest.mark.parametrize("prefetch_degree", [0, 3])
@pytest.mark.parametrize("assoc", [1, 2, 8])
@pytest.mark.parametrize("org", ["sa", "dm"])
def test_matches_stamp_lru_reference(org, assoc, prefetch_degree, sram_sets,
                                     seed, monkeypatch):
    tc = _check_against_reference(DRAMCacheArray(GEOM, org), _requests(seed),
                                  assoc, prefetch_degree, sram_sets,
                                  monkeypatch)
    assert tc.stats.tag_hits > 0 and tc.stats.dram_tag_writes > 0


@pytest.mark.parametrize("org", ["sa", "dm"])
def test_prefetch_wraps_past_the_last_set(org, monkeypatch):
    """A stream over the array's last and first sets, so the last sets'
    prefetches wrap to sets 0, 1, 2 and later requests can hit on them."""
    array = DRAMCacheArray(GEOM, org)
    n = array.dm.num_entries if array.is_direct_mapped else array.sa.num_sets
    stream = _requests(3, n=2000, span=64, first=n - 32)
    assert {array.set_index(a) for a, _ in stream} >= {n - 1, 0}
    tc = _check_against_reference(array, stream, 2, 3, 4, monkeypatch)
    assert tc.stats.tag_hits > 0 and tc.stats.dram_tag_writes > 0
