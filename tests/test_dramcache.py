"""Functional DRAM-cache array: hits, fills, LRU, dirty state, bulk fill."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.dramcache import DRAMCacheArray, _dirty_bits
from repro.config import DRAMCacheGeometry

from reference import contents_signature

GEOM = DRAMCacheGeometry(size_bytes=2 * 2**20)  # small: fast eviction tests


@pytest.fixture(params=["sa", "dm"])
def array(request):
    return DRAMCacheArray(GEOM, request.param)


@pytest.fixture
def sa():
    return DRAMCacheArray(GEOM, "sa")


@pytest.fixture
def dm():
    return DRAMCacheArray(GEOM, "dm")


class TestBasics:
    def test_cold_miss(self, array):
        assert not array.probe(0x1000).hit

    def test_fill_then_hit(self, array):
        array.fill(0x1000, dirty=False)
        res = array.probe(0x1000)
        assert res.hit and not res.dirty

    def test_dirty_fill(self, array):
        array.fill(0x1000, dirty=True)
        assert array.probe(0x1000).dirty

    def test_lookup_read_counts(self, array):
        array.fill(0x1000, dirty=False)
        array.lookup_read(0x1000)
        array.lookup_read(0x2000000)
        assert array.lookups == 2
        assert array.hits == 1
        assert array.hit_rate == 0.5

    def test_lookup_write_sets_dirty(self, array):
        array.fill(0x1000, dirty=False)
        array.lookup_write(0x1000)
        assert array.probe(0x1000).dirty

    def test_invalid_organization(self):
        with pytest.raises(ValueError):
            DRAMCacheArray(GEOM, "fully-assoc")

    def test_invalidate(self, array):
        array.fill(0x1000, dirty=True)
        assert array.invalidate(0x1000)
        assert not array.probe(0x1000).hit
        assert not array.invalidate(0x1000)

    def test_block_granularity(self, array):
        array.fill(0x1000, dirty=False)
        assert array.probe(0x1000 + 63).hit  # same block
        assert not array.probe(0x1000 + 64).hit

    def test_reset_counters(self, array):
        array.fill(0x1000, False)
        array.lookup_read(0x1000)
        array.reset_counters()
        assert array.lookups == array.hits == array.fills == 0


class TestEvictionSA:
    def _addr_in_set(self, sa, set_idx, tag):
        return sa.sa.block_addr(set_idx, tag) * 64

    def test_victim_returned_when_full(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        for a in addrs[:15]:
            assert sa.fill(a, dirty=False).victim_block_addr is None
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr is not None

    def test_lru_victim_choice(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        for a in addrs[:15]:
            sa.fill(a, dirty=False)
        sa.lookup_read(addrs[0])  # refresh the oldest
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr == addrs[1]  # now the LRU

    def test_dirty_victim_flagged(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        sa.fill(addrs[0], dirty=True)
        for a in addrs[1:15]:
            sa.fill(a, dirty=False)
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr == addrs[0]
        assert res.victim_dirty
        assert sa.dirty_evictions == 1

    def test_refill_of_present_block_refreshes(self, array):
        # Both organizations: a one-way (DM) set refreshes in place too,
        # rather than evicting the block as its own victim.
        a = self._addr_in_set(array, 0, 1)
        array.fill(a, dirty=True)
        res = array.fill(a, dirty=False)
        assert res.victim_block_addr is None and not res.victim_dirty
        assert array.probe(a).dirty  # dirty not lost
        assert array.dirty_evictions == 0


class TestEvictionDM:
    def test_conflict_evicts(self, dm):
        a0 = 0x0
        a1 = dm.dm.num_entries * 64  # same entry, different tag
        dm.fill(a0, dirty=True)
        res = dm.fill(a1, dirty=False)
        assert res.victim_block_addr == a0
        assert res.victim_dirty
        assert not dm.probe(a0).hit
        assert dm.probe(a1).hit


class TestLocations:
    def test_sa_tag_data_same_row(self, sa):
        addr = 0x123440
        res_row = sa.tag_location(addr) // GEOM.row_bytes
        sa.fill(addr, dirty=False)
        way = sa.probe(addr).way
        assert sa.data_location(addr, way) // GEOM.row_bytes == res_row

    def test_dm_tad_single_location(self, dm):
        addr = 0x123440
        assert dm.tag_location(addr) == dm.data_location(addr, 0)

    def test_data_offsets_hold_for_every_set(self, array):
        """The translator's data address, tag location + per-way offset,
        is ``data_location`` for every set and way."""
        n = array.dm.num_entries if array.is_direct_mapped else array.sa.num_sets
        ways = len(array.data_offsets)
        assert ways == (1 if array.is_direct_mapped else array.sa.ways)
        for s in (0, 1, 2, 3, 4, 5, n // 2 + 1, n - 1):
            addr = s * GEOM.block_bytes + (7 * n * GEOM.block_bytes)
            for w in range(ways):
                assert (array.tag_location(addr) + array.data_offsets[w]
                        == array.data_location(addr, w))

    def test_helpers_map_arrays_like_scalars(self, array):
        """The address helpers take int64 arrays element-wise, including
        the set-count wrap, and never modify the array passed in."""
        n = array.dm.num_entries if array.is_direct_mapped else array.sa.num_sets
        sets = np.array([0, 1, n - 2, n - 1, n, n + 3, 3 * n + 5],
                        dtype=np.int64)
        given = sets.copy()
        locs = array.tag_location_of_set(sets)
        np.testing.assert_array_equal(sets, given)
        assert locs.tolist() == [array.tag_location_of_set(int(s))
                                 for s in given]
        addrs = sets * GEOM.block_bytes
        assert array.set_index(addrs).tolist() == [
            array.set_index(int(a)) for a in addrs]
        np.testing.assert_array_equal(addrs, given * GEOM.block_bytes)


class TestBulkFill:
    def test_bulk_equivalent_to_sequential(self):
        """bulk_fill must leave the same resident set as fill-by-fill."""
        for orgn in ("sa", "dm"):
            a = DRAMCacheArray(GEOM, orgn)
            b = DRAMCacheArray(GEOM, orgn)
            n = 5000
            a.bulk_fill_many([(0, n, 0.0, 0)])
            for i in range(n):
                b.fill(i * 64, dirty=False)
            hits_a = sum(a.probe(i * 64).hit for i in range(n))
            hits_b = sum(b.probe(i * 64).hit for i in range(n))
            assert hits_a == hits_b

    def test_bulk_dirty_fraction(self):
        a = DRAMCacheArray(GEOM, "sa")
        n = 4000
        a.bulk_fill_many([(0, n, 0.5, 3)])
        dirty = sum(a.probe(i * 64).dirty for i in range(n)
                    if a.probe(i * 64).hit)
        resident = sum(a.probe(i * 64).hit for i in range(n))
        assert 0.35 * resident < dirty < 0.65 * resident

    def test_bulk_fill_deterministic(self):
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many([(0, 3000, 0.3, 7)])
        b.bulk_fill_many([(0, 3000, 0.3, 7)])
        for i in range(3000):
            assert a.probe(i * 64) == b.probe(i * 64)

    def test_two_ranges_share_capacity(self):
        """Second core's prefill must not wipe the first's (LRU merge)."""
        a = DRAMCacheArray(GEOM, "sa")
        n = 2000  # two small ranges, well within capacity
        a.bulk_fill_many([(0, n, 0.0, 0)])
        a.bulk_fill_many([(1 << 44, n, 0.0, 0)])
        hits0 = sum(a.probe(i * 64).hit for i in range(n))
        hits1 = sum(a.probe((1 << 44) + i * 64).hit for i in range(n))
        assert hits1 == n
        assert hits0 == n  # first range survives

    def test_zero_blocks_noop(self, array):
        array.bulk_fill_many([(0, 0, 0.0, 0)])
        assert array.fills == 0


def _state(a):
    return (contents_signature(a), a._clock, a.dirty_evictions)


#: prefill chunk sizes in cells: a set split across chunks, one set per
#: chunk in SA, a few sets per chunk, and the shipped size
PREFILL_CHUNKS = st.sampled_from((1, 7, 64, DRAMCacheArray.PREFILL_CELLS))


def _bulk_fill_in_chunks(a, fills, cells):
    """``a.bulk_fill_many(fills)`` rebuilding ``cells`` cells a pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DRAMCacheArray, "PREFILL_CELLS", cells)
        a.bulk_fill_many(fills)


def _per_set_bulk_fill(a, start_addr, n_blocks, dirty_fraction, seed):
    """Reference bulk_fill: one interpreted merge per touched set.

    Each set's valid ways keep their way order and its last ``ways``
    inserts follow, stamped in ascending set order; on overflow the set
    is sorted by stamp and its oldest entries are displaced.
    """
    if n_blocks <= 0:
        return
    n, ways = a._num_sets, a._ways
    if not a._tags:
        a._allocate()
    blocks = range(start_addr // 64, start_addr // 64 + n_blocks)
    dirty = _dirty_bits(np.array(blocks), seed, dirty_fraction).tolist()
    groups = {}
    for blk, drt in zip(blocks, dirty):
        groups.setdefault(blk % n, []).append((blk // n, drt))
    for sid in sorted(groups):
        lo = sid * ways
        merged = [e for e in zip(a._stamp[lo:lo + ways], a._tags[lo:lo + ways],
                                 map(bool, a._dirty[lo:lo + ways]))
                  if e[1] != -1]
        for tag, drt in groups[sid][-ways:]:
            a._clock += 1
            merged.append((a._clock, tag, drt))
        overflow = len(merged) - ways
        if overflow > 0:
            merged.sort()
            a.dirty_evictions += sum(e[2] for e in merged[:overflow])
            del merged[:overflow]
        merged += [(0, -1, False)] * (ways - len(merged))
        for w, (stamp, tag, drt) in enumerate(merged):
            a._stamp[lo + w], a._tags[lo + w], a._dirty[lo + w] = stamp, tag, drt


@given(st.sampled_from(["sa", "dm"]),
       st.lists(st.tuples(st.sampled_from(("read", "write", "fill",
                                           "fill_dirty", "invalidate")),
                          st.integers(0, 1),              # set (2 hot sets)
                          st.integers(0, 9)),             # tag (> ways per set)
                min_size=20, max_size=100),
       st.lists(st.tuples(st.integers(0, 1),              # range id (<< 44)
                          st.integers(0, 500),            # start block offset
                          st.integers(0, 3000),           # n_blocks (> capacity)
                          st.floats(0.0, 1.0),            # dirty_fraction
                          st.integers(0, 9)),             # seed
                min_size=1, max_size=3),
       PREFILL_CHUNKS)
@settings(max_examples=40, deadline=None)
def test_bulk_fill_matches_per_set_merge(orgn, pre, specs, cells):
    """The chunked merge equals the per-set one on a populated array:
    holes left by invalidations, stamps out of way order, dirty ways,
    partial overflow and eviction counts, at any chunk size.  A tiny
    4-way array (240 sets, 960 entries) lets a few hundred ops fill the
    hot sets."""
    a = DRAMCacheArray(DRAMCacheGeometry(size_bytes=2**16, sa_ways=4), orgn)
    for op, set_idx, tag in pre:
        addr = (tag * a._num_sets + set_idx) * 64
        if op == "invalidate":
            a.invalidate(addr)
        elif op in ("read", "write"):
            (a.lookup_write if op == "write" else a.lookup_read)(addr)
        else:
            a.fill(addr, dirty=op == "fill_dirty")
    b = copy.deepcopy(a)
    for rid, off, n, df, sd in specs:
        _bulk_fill_in_chunks(a, [((rid << 44) + off * 64, n, df, sd)], cells)
        _per_set_bulk_fill(b, (rid << 44) + off * 64, n, df, sd)
    assert _state(a) == _state(b)


@pytest.mark.parametrize("populated", [False, True])
@pytest.mark.parametrize("orgn", ["sa", "dm"])
@given(st.lists(st.tuples(st.integers(0, 1),              # range id (<< 44)
                          st.integers(0, 500),            # start block offset
                          st.integers(0, 3000),           # n_blocks (> capacity)
                          st.floats(0.0, 1.0),            # dirty_fraction
                          st.integers(0, 9)),             # seed
                min_size=1, max_size=4),
       PREFILL_CHUNKS)
@settings(max_examples=30, deadline=None)
def test_bulk_fill_many_matches_per_set_reference(orgn, populated, specs,
                                                  cells):
    """A whole batch equals the per-set reference applied range by
    range, on an empty array and on a populated one, whether a set's
    inserts from several ranges land in one chunk or a range spans
    many."""
    geom = DRAMCacheGeometry(size_bytes=2**16, sa_ways=4)
    a = DRAMCacheArray(geom, orgn)
    if populated:
        for blk in range(0, 3 * a._num_sets, 5):
            a.fill(blk * 64, dirty=blk % 3 == 0)
        a.invalidate(0)
    b = copy.deepcopy(a)
    fills = [((rid << 44) + off * 64, n, df, sd)
             for rid, off, n, df, sd in specs]
    _bulk_fill_in_chunks(a, fills, cells)
    for start, n, df, sd in fills:
        _per_set_bulk_fill(b, start, n, df, sd)
    assert _state(a) == _state(b)

class TestBulkFillMany:
    """bulk_fill_many must be byte-for-byte the sequential composition."""

    @given(st.lists(
        st.tuples(st.integers(0, 3),                  # range id (<< 44)
                  st.integers(0, 4000),               # n_blocks
                  st.floats(0.0, 1.0),                # dirty_fraction
                  st.integers(0, 9)),                 # seed
        min_size=0, max_size=5),
        st.sampled_from(["sa", "dm"]),
        # Larger chunks than PREFILL_CHUNKS: at one cell a pass, this
        # 2 MB array takes 30 720 passes a batch in DM.
        st.sampled_from((64, 1000, DRAMCacheArray.PREFILL_CELLS)))
    @settings(max_examples=50, deadline=None)
    def test_fused_matches_sequential(self, specs, orgn, cells):
        """One batch at any chunk size equals one call per range at the
        shipped chunk size."""
        fills = [(rid << 44, n, df, sd) for rid, n, df, sd in specs]
        a = DRAMCacheArray(GEOM, orgn)
        b = DRAMCacheArray(GEOM, orgn)
        _bulk_fill_in_chunks(a, fills, cells)
        for start, n, df, sd in fills:
            b.bulk_fill_many([(start, n, df, sd)])
        assert _state(a) == _state(b)

    def test_overlapping_ranges_match_sequential(self):
        """Same base address twice: later inserts displace earlier ones
        with identical eviction accounting on both paths."""
        # Two 40k-block ranges over ~2.2k 15-way sets: each call's groups
        # exceed the ways (per-call clipping) and the second call's
        # inserts displace the first's survivors (cross-call eviction).
        fills = [(0, 40_000, 0.4, 1), (0, 40_000, 0.6, 2),
                 (1 << 44, 500, 0.0, 3)]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill_many([(start, n, df, sd)])
        assert _state(a) == _state(b)
        assert a.dirty_evictions > 0

    def test_prefilled_column_shares_tag_ints(self):
        """A batch leaves one int object per distinct tag in the column,
        not one per cell (half a million at quick scale), into an empty
        array and into a populated one, whose surviving entries keep
        their own int objects."""
        a = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many([(0, 40_000, 0.3, 1), (1 << 44, 40_000, 0.3, 2)])
        assert len({id(t) for t in a._tags}) == len(set(a._tags)) < 100
        addr = (5 << 44) + 0x12340
        a.fill(addr, dirty=True)
        demand = a._tags[a.set_index(addr) * a._ways + a.probe(addr).way]
        a.bulk_fill_many([(2 << 44, 20_000, 0.5, 3), (3 << 44, 9_000, 0.1, 4)])
        assert len({id(t) for t in a._tags}) == len(set(a._tags)) < 200
        assert a.probe(addr).hit
        assert any(t is demand for t in a._tags)

    def test_warm_array_falls_back_to_sequential(self):
        """A batch into an array that already holds a demand fill equals
        one call per range: the existing entry is merged with every
        range's inserts, not overwritten."""
        fills = [(0, 2000, 0.3, 1), (1 << 44, 2000, 0.3, 2)]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        for arr in (a, b):
            arr.fill(0x12340, dirty=True)
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill_many([(start, n, df, sd)])
        assert _state(a) == _state(b)

    def test_restored_array_matches_sequential(self):
        """A restored array already holds contents, so bulk_fill_many
        must compose with them exactly as sequential bulk_fill calls do."""
        donor = DRAMCacheArray(GEOM, "sa")
        donor.bulk_fill_many([(0, 3000, 0.2, 5)])
        state = donor.capture_state()
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.restore_state(state)
        b.restore_state(state)
        fills = [(0, 3000, 0.7, 8), (1 << 44, 2000, 0.1, 9)]
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill_many([(start, n, df, sd)])
        assert _state(a) == _state(b)
        assert _state(a) != _state(donor)

    @given(st.lists(
        st.tuples(st.integers(0, 3),                  # range id (<< 44)
                  st.integers(0, 70_000),             # start block offset
                  st.integers(0, 70_000),             # n_blocks (> capacity)
                  st.floats(0.0, 1.0),                # dirty_fraction
                  st.integers(0, 9)),                 # seed
        min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_unaligned_ranges_match_sequential(self, specs):
        """Ranges starting anywhere in the set cycle, some longer than
        the whole cache, fuse exactly."""
        fills = [((rid << 44) + off * 64, n, df, sd)
                 for rid, off, n, df, sd in specs]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill_many([(start, n, df, sd)])
        assert _state(a) == _state(b)


class TestPrefillMemory:
    """The quick-scale warm-up prefill's memory, traced by tracemalloc."""

    @staticmethod
    def system(orgn, **spec):
        from repro.experiments.common import RunSpec, SimParams, build_system
        return build_system(RunSpec("DCA", orgn, **spec), SimParams.quick())

    @pytest.mark.parametrize("orgn,bound_mb", [("sa", 2.5), ("dm", 6.0)])
    def test_pristine_prefill_peak_is_chunk_sized(self, orgn, bound_mb):
        """Mix 1 into an empty array: 491 520 cells of columns stay
        (8.36 MB), and nothing near their size is built beside them."""
        system = self.system(orgn, mix_id=1)
        tracemalloc.start()
        try:
            system._prefill()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained > 8e6
        assert peak - retained <= bound_mb * 1e6

    @pytest.mark.parametrize("orgn", ["sa", "dm"])
    def test_populated_prefill_shares_tag_ints(self, orgn):
        """``conflict_vs_streams`` puts its adversary's exact warm set in
        first, so its streams' ranges merge into a populated array; the
        column still holds a few shared int objects, not one per cell."""
        system = self.system(orgn, workload="conflict_vs_streams")
        system._prefill()
        assert len({id(t) for t in system.controller.array._tags}) < 1000


class RefSA:
    """Per-set dict-of-lists reference model of the tag store.

    Each written set is a ``[tags, dirty, stamp]`` triple of way lists,
    created on its first fill, so it shares no indexing with the flat
    columns it checks.  A direct-mapped array is checked as one-way
    sets, one per entry.
    """

    def __init__(self, array):
        self.organization = array.organization
        self.n, self.ways = ((array.dm.num_entries, 1)
                             if array.organization == "dm"
                             else (array.sa.num_sets, array.sa.ways))
        self.block = array.geometry.block_bytes
        self.sets = {}
        self.clock = 0
        self.lookups = self.hits = self.fills = self.dirty_evictions = 0

    def _find(self, b):
        s = self.sets.get(b % self.n)
        tag = b // self.n
        if s is None or tag not in s[0]:
            return s, -1
        return s, s[0].index(tag)

    def _stamp(self, s, w):
        self.clock += 1
        s[2][w] = self.clock

    def probe(self, b):
        s, w = self._find(b)
        return (w >= 0, w, w >= 0 and s[1][w])

    def lookup(self, b, write):
        self.lookups += 1
        s, w = self._find(b)
        res = (w >= 0, w, w >= 0 and s[1][w])
        if w >= 0:
            self.hits += 1
            if write:
                s[1][w] = True
            self._stamp(s, w)
        return res

    def fill(self, b, dirty):
        self.fills += 1
        s = self.sets.setdefault(
            b % self.n, [[-1] * self.ways, [False] * self.ways, [0] * self.ways])
        tags, drt, stamp = s
        tag = b // self.n
        if tag in tags:
            w = tags.index(tag)
            drt[w] = drt[w] or dirty
            self._stamp(s, w)
            return (w, None, False)
        # LRU: the oldest stamp, the lowest way on a tie.
        w = (tags.index(-1) if -1 in tags
             else min(range(self.ways), key=stamp.__getitem__))
        old_tag, old_dirty = tags[w], drt[w]
        tags[w], drt[w] = tag, dirty
        self._stamp(s, w)
        if old_tag == -1:
            return (w, None, False)
        if old_dirty:
            self.dirty_evictions += 1
        return (w, (old_tag * self.n + b % self.n) * self.block, old_dirty)

    def invalidate(self, b):
        s, w = self._find(b)
        if w < 0:
            return False
        s[0][w], s[1][w] = -1, False
        return True

    def signature(self):
        return (self.organization, self.clock,
                sorted((k, tuple(t), tuple(d), tuple(st))
                       for k, (t, d, st) in self.sets.items()))


OPS = ("probe", "read", "write", "fill", "fill_dirty", "invalidate", "fork")


@given(st.lists(st.tuples(st.sampled_from(OPS),
                          st.integers(0, 2),          # set (3 hot sets)
                          st.integers(0, 24)),        # tag (> ways per set)
                max_size=300))
@settings(max_examples=40, deadline=None)
def test_lockstep_with_per_set_reference(ops):
    """The flat columns behave exactly like per-set lists: every result,
    victim, counter and the final contents, across capture -> restore,
    in both organizations."""
    for orgn in ("sa", "dm"):
        _lockstep(orgn, ops)


def _lockstep(orgn, ops):
    arr = DRAMCacheArray(GEOM, orgn)
    ref = RefSA(arr)
    n = ref.n
    for op, set_idx, tag in ops:
        b = tag * n + set_idx
        addr = b * 64
        if op == "probe":
            r = arr.probe(addr)
            assert (r.hit, r.way, r.dirty) == ref.probe(b)
        elif op in ("read", "write"):
            r = (arr.lookup_write(addr) if op == "write"
                 else arr.lookup_read(addr))
            assert (r.hit, r.way, r.dirty) == ref.lookup(b, op == "write")
        elif op in ("fill", "fill_dirty"):
            f = arr.fill(addr, dirty=op == "fill_dirty")
            assert ((f.way, f.victim_block_addr, f.victim_dirty)
                    == ref.fill(b, op == "fill_dirty"))
        elif op == "invalidate":
            assert arr.invalidate(addr) == ref.invalidate(b)
        else:
            # Continue on a restored copy; scribbling on the donor must
            # not reach it.
            fork = DRAMCacheArray(GEOM, orgn)
            fork.restore_state(arr.capture_state())
            fork.lookups, fork.hits = arr.lookups, arr.hits
            fork.fills, fork.dirty_evictions = arr.fills, arr.dirty_evictions
            for t in range(ref.ways + 1):
                arr.fill((t * n + set_idx) * 64, dirty=True)
            arr = fork
    assert contents_signature(arr) == ref.signature()
    assert (arr.lookups, arr.hits, arr.fills, arr.dirty_evictions) == (
        ref.lookups, ref.hits, ref.fills, ref.dirty_evictions)


@given(st.lists(st.integers(0, 300), min_size=1, max_size=200),
       st.sampled_from(["sa", "dm"]))
@settings(max_examples=50, deadline=None)
def test_probe_consistency(blocks, orgn):
    """After any fill sequence, probe agrees with a reference dict model
    restricted to single-set occupancy accounting."""
    a = DRAMCacheArray(GEOM, orgn)
    filled = set()
    for blk in blocks:
        addr = blk * 64
        res = a.fill(addr, dirty=False)
        filled.add(addr)
        if res.victim_block_addr is not None:
            filled.discard(res.victim_block_addr)
    for addr in filled:
        assert a.probe(addr).hit


def _columns(a):
    return (list(a._tags), bytes(a._dirty), a._stamp.tobytes(), a._clock,
            a.fills, a.dirty_evictions)


@pytest.mark.parametrize("start", ["empty", "prefilled", "full"])
@pytest.mark.parametrize("orgn", ["sa", "dm"])
@given(st.lists(st.tuples(st.integers(0, 3),          # set (4 hot sets)
                          st.integers(0, 40),         # tag (> ways per set)
                          st.booleans()),             # dirty
                max_size=120))
@settings(max_examples=30, deadline=None)
def test_fill_many_matches_sequential_fill(orgn, start, fills):
    """One ``fill_many`` leaves exactly what one ``fill`` per address
    leaves: columns, clock, fill and dirty-eviction counts, on empty,
    partly filled and full arrays, across chunk boundaries."""
    a = DRAMCacheArray(GEOM, orgn)
    capacity = a._num_sets * a._ways
    if start == "prefilled":
        a.bulk_fill_many([(0, capacity // 3, 0.5, 1)])
    elif start == "full":
        a.bulk_fill_many([(0, 2 * capacity, 0.5, 2)])
    b = copy.deepcopy(a)
    addrs = [(tag * a._num_sets + set_idx) * 64 + tag % 64
             for set_idx, tag, _ in fills]
    dirty = [d for _, _, d in fills]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DRAMCacheArray, "CHUNK", 7)
        a.fill_many(np.array(addrs, dtype=np.int64),
                    np.array(dirty, dtype=bool))
    for addr, d in zip(addrs, dirty):
        b.fill(addr, d)
    assert _columns(a) == _columns(b)


def test_fill_many_replays_lookup_then_fill():
    """The warm-up's identity: a lookup, then a fill on a miss, changes
    the contents exactly as one fill does (only lookups/hits differ)."""
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, 4 * DRAMCacheArray(GEOM, "sa")._num_sets * 3,
                          size=3000)
    writes = rng.random(3000) < 0.3
    for orgn in ("sa", "dm"):
        a = DRAMCacheArray(GEOM, orgn)
        b = DRAMCacheArray(GEOM, orgn)
        a.fill_many(blocks * 64, writes)
        for blk, w in zip(blocks.tolist(), writes.tolist()):
            lookup = b.lookup_write if w else b.lookup_read
            if not lookup(blk * 64).hit:
                b.fill(blk * 64, w)
        assert contents_signature(a) == contents_signature(b)
        assert a.dirty_evictions == b.dirty_evictions
