"""Memory-side components: main memory, SRAM caches, MSHRs, Lee writeback."""

import copy
import random
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheGeometry, MainMemoryConfig
from repro.mem.llc_writeback import DRAMAwareWritebackIndex
from repro.mem.mainmem import BankedMainMemory, MainMemory, make_mainmem
from repro.mem.mshr import MSHRFile
from repro.mem.sram import SRAMCache, SRAMCacheStats, interleave
from repro.sim.engine import Simulator


class TestMainMemory:
    def test_fetch_latency(self):
        sim = Simulator()
        mm = MainMemory(sim, MainMemoryConfig())
        done = []
        mm.fetch(0x1000, done.append)
        sim.run()
        assert done == [0x1000]
        assert sim.now == 50_000

    def test_bus_serializes(self):
        sim = Simulator()
        mm = MainMemory(sim, MainMemoryConfig())
        t1 = mm.fetch(0x0, lambda a: None)
        t2 = mm.fetch(0x40, lambda a: None)
        assert t2 - t1 == MainMemoryConfig().bus_occupancy_ps

    def test_writes_consume_bus(self):
        sim = Simulator()
        mm = MainMemory(sim, MainMemoryConfig())
        mm.write(0x0)
        t = mm.fetch(0x40, lambda a: None)
        assert t == MainMemoryConfig().bus_occupancy_ps + 50_000

    def test_stats(self):
        sim = Simulator()
        mm = MainMemory(sim, MainMemoryConfig())
        mm.fetch(0, lambda a: None)
        mm.write(64)
        assert mm.stats.reads == 1
        assert mm.stats.writes == 1
        mm.reset_stats()
        assert mm.stats.reads == 0

    def test_bus_wait_counters(self):
        """Queued accesses accumulate the time they waited for the bus."""
        cfg = MainMemoryConfig()
        sim = Simulator()
        mm = MainMemory(sim, cfg)
        mm.fetch(0x0, lambda a: None)       # bus free: no wait
        mm.fetch(0x40, lambda a: None)      # waits one slot
        mm.write(0x80)                      # waits two slots
        assert mm.stats.read_bus_wait_ps == cfg.bus_occupancy_ps
        assert mm.stats.write_bus_wait_ps == 2 * cfg.bus_occupancy_ps

    def test_write_latency_counters(self):
        cfg = MainMemoryConfig()
        sim = Simulator()
        mm = MainMemory(sim, cfg)
        mm.write(0x0)
        assert mm.stats.write_latency_sum_ps == cfg.latency_ps
        assert mm.stats.mean_write_latency_ps == float(cfg.latency_ps)


BANKED = MainMemoryConfig(model="banked")


def _banked(sim):
    return BankedMainMemory(sim, BANKED)


class TestBankedMainMemory:
    """The banked model behind the Substrate (mainmem.model="banked")."""

    def test_factory_dispatch(self):
        sim = Simulator()
        assert isinstance(make_mainmem(sim, MainMemoryConfig()), MainMemory)
        assert isinstance(make_mainmem(sim, BANKED), BankedMainMemory)

    def test_cold_fetch_timing(self):
        """Closed bank: ACT + CAS + the burst; callback fires at the end."""
        t = BANKED.timings
        sim = Simulator()
        mm = _banked(sim)
        done = []
        end = mm.fetch(0x1000, done.append)
        assert end == t.tRCD + t.tCAS + t.tBURST
        sim.run()
        assert done == [0x1000] and sim.now == end

    def test_row_hit_is_faster(self):
        """A second block of the same row skips the activation."""
        sim = Simulator()
        mm = _banked(sim)
        t1 = mm.fetch(0x0, lambda a: None)
        t2 = mm.fetch(0x40, lambda a: None)   # next block, same row
        assert t2 - t1 == BANKED.timings.tBURST   # back-to-back bursts

    def test_channels_run_in_parallel(self):
        """Blocks on different channels don't serialise on one bus."""
        org = BANKED.org
        sim = Simulator()
        mm = _banked(sim)
        d0 = mm.mapper.decode(0x0)
        ch_stride = org.row_bytes     # robarachco: channel above column
        d1 = mm.mapper.decode(ch_stride)
        assert d0.channel != d1.channel
        t1 = mm.fetch(0x0, lambda a: None)
        t2 = mm.fetch(ch_stride, lambda a: None)
        assert t1 == t2

    def test_rank_switch_pays_tcs(self):
        """Different-rank bursts on one channel need the tCS bus gap."""
        org, t = BANKED.org, BANKED.timings
        rank_stride = org.row_bytes * org.channels
        sim = Simulator()
        mm = _banked(sim)
        d0, d1 = mm.mapper.decode(0x0), mm.mapper.decode(rank_stride)
        assert d0.channel == d1.channel and d0.rank != d1.rank
        t1 = mm.fetch(0x0, lambda a: None)
        t2 = mm.fetch(rank_stride, lambda a: None)
        assert t2 - t1 == t.tCS + t.tBURST
        assert mm.channels[d0.channel].stats.rank_switches == 1

    def test_same_rank_bank_switch_free(self):
        """Same-rank different-bank bursts stream back-to-back."""
        org, t = BANKED.org, BANKED.timings
        bank_stride = (org.row_bytes * org.channels
                       * org.ranks_per_channel)
        sim = Simulator()
        mm = _banked(sim)
        d0, d1 = mm.mapper.decode(0x0), mm.mapper.decode(bank_stride)
        assert (d0.channel, d0.rank) == (d1.channel, d1.rank)
        assert d0.bank != d1.bank
        t1 = mm.fetch(0x0, lambda a: None)
        t2 = mm.fetch(bank_stride, lambda a: None)
        assert t2 - t1 == t.tBURST
        assert mm.channels[d0.channel].stats.rank_switches == 0

    def test_stats_and_reset(self):
        sim = Simulator()
        mm = _banked(sim)
        end = mm.fetch(0x0, lambda a: None)
        mm.write(0x40)
        s = mm.stats
        assert s.reads == 1 and s.writes == 1
        assert s.read_latency_sum_ps == end
        assert s.read_bus_wait_ps == end - BANKED.timings.tBURST
        assert s.write_latency_sum_ps > 0
        ch = mm.mapper.decode(0x0).channel
        assert mm.channels[ch].stats.total_accesses == 2
        mm.reset_stats()
        assert s.reads == 0
        assert mm.channels[ch].stats.total_accesses == 0

    def test_metrics_registry_keys(self):
        sim = Simulator()
        mm = _banked(sim)
        for i in range(BANKED.org.channels):
            assert f"ch{i}" in mm.metrics

    def test_total_stats_rolls_up_channels(self):
        org = BANKED.org
        sim = Simulator()
        mm = _banked(sim)
        mm.fetch(0x0, lambda a: None)
        mm.fetch(org.row_bytes, lambda a: None)   # other channel
        total = mm.total_stats()
        assert total.read_accesses == 2

    def test_callback_arg_routing(self):
        """Like the flat model, ``arg`` replaces the address payload."""
        sim = Simulator()
        mm = _banked(sim)
        got = []
        mm.fetch(0x1000, got.append, arg="token")
        sim.run()
        assert got == ["token"]


GEOM = CacheGeometry(size_bytes=8 * 1024, assoc=2)  # 64 sets, tiny


class TestSRAMCache:
    def test_miss_then_hit(self):
        c = SRAMCache(GEOM)
        hit, victim = c.access(0x1000, False)
        assert not hit and victim is None
        hit, _ = c.access(0x1000, False)
        assert hit

    def test_touch_does_not_allocate(self):
        c = SRAMCache(GEOM)
        assert not c.touch(0x1000, False)
        assert not c.probe(0x1000)

    def test_touch_hit_updates_dirty(self):
        c = SRAMCache(GEOM)
        c.fill(0x1000)
        assert c.touch(0x1000, True)
        assert c.dirty_count() == 1

    def test_lru_eviction(self):
        c = SRAMCache(GEOM)
        s = GEOM.num_sets * 64
        a0, a1, a2 = 0x0, s, 2 * s  # same set, 2-way
        c.access(a0, False)
        c.access(a1, False)
        c.access(a0, False)          # refresh a0
        _, victim = c.access(a2, False)
        assert not c.probe(a1)       # a1 was LRU
        assert c.probe(a0)

    def test_dirty_victim_returned(self):
        c = SRAMCache(GEOM)
        s = GEOM.num_sets * 64
        c.access(0x0, True)
        c.access(s, False)
        _, victim = c.access(2 * s, False)
        assert victim == 0x0
        assert c.stats.dirty_evictions == 1

    def test_clean_victim_not_returned(self):
        c = SRAMCache(GEOM)
        s = GEOM.num_sets * 64
        c.access(0x0, False)
        c.access(s, False)
        _, victim = c.access(2 * s, False)
        assert victim is None

    def test_clean_method(self):
        c = SRAMCache(GEOM)
        c.access(0x1000, True)
        assert c.clean(0x1000)
        assert not c.clean(0x1000)   # already clean
        assert c.dirty_count() == 0

    def test_invalidate(self):
        c = SRAMCache(GEOM)
        c.access(0x1000, True)
        assert c.invalidate(0x1000)
        assert not c.probe(0x1000)

    def test_hit_rate(self):
        c = SRAMCache(GEOM)
        c.access(0x1000, False)
        c.access(0x1000, False)
        assert c.stats.hit_rate == 0.5


class TestDirtyRowIndex:
    @staticmethod
    def row_of(addr):
        return addr // 4096

    def test_tracking(self):
        c = SRAMCache(GEOM, row_of=TestDirtyRowIndex.row_of)
        c.access(0x0, True)
        c.access(0x40, True)
        c.access(0x1000, True)
        assert c.dirty_in_row(0) == [0x0, 0x40]
        assert c.dirty_in_row(1) == [0x1000]

    def test_untrack_on_clean(self):
        c = SRAMCache(GEOM, row_of=TestDirtyRowIndex.row_of)
        c.access(0x0, True)
        c.clean(0x0)
        assert c.dirty_in_row(0) == []

    def test_untrack_on_eviction(self):
        c = SRAMCache(GEOM, row_of=TestDirtyRowIndex.row_of)
        s = GEOM.num_sets * 64
        c.access(0x0, True)
        c.access(s, False)
        c.access(2 * s, False)  # evicts dirty 0x0
        assert c.dirty_in_row(0) == []


class _StampLRUSRAM:
    """Reference SRAM cache: per-set ``[tag, dirty, stamp]`` entries, a
    global access clock, and victims chosen by ``min`` over the stamps
    (the layout the LRU-ordered ``{tag: dirty}`` sets replaced)."""

    _STAMP = itemgetter(2)

    def __init__(self, geom, row_of=None):
        self.num_sets = geom.num_sets
        self.block = geom.block_bytes
        self.assoc = geom.assoc
        self.sets = {}      # set idx -> {tag -> [tag, dirty, stamp]}
        self.clock = 0
        self.stats = SRAMCacheStats()
        self.row_of = row_of
        self.dirty_rows = {}

    def _track(self, addr):
        if self.row_of is not None:
            self.dirty_rows.setdefault(self.row_of(addr), set()).add(addr)

    def _untrack(self, addr):
        if self.row_of is not None:
            row = self.row_of(addr)
            blocks = self.dirty_rows.get(row)
            if blocks is not None:
                blocks.discard(addr)
                if not blocks:
                    del self.dirty_rows[row]

    def probe(self, addr):
        blk = addr // self.block
        s = self.sets.get(blk % self.num_sets)
        return s is not None and blk // self.num_sets in s

    def touch(self, addr, is_write):
        self.stats.accesses += 1
        blk = addr // self.block
        s = self.sets.get(blk % self.num_sets)
        e = s.get(blk // self.num_sets) if s is not None else None
        if e is None:
            return False
        self.stats.hits += 1
        self.clock += 1
        e[2] = self.clock
        if is_write and not e[1]:
            e[1] = True
            self._track(addr)
        return True

    def access(self, addr, is_write):
        self.stats.accesses += 1
        blk = addr // self.block
        set_idx, tag = blk % self.num_sets, blk // self.num_sets
        s = self.sets.setdefault(set_idx, {})
        self.clock += 1
        e = s.get(tag)
        if e is not None:
            self.stats.hits += 1
            e[2] = self.clock
            if is_write and not e[1]:
                e[1] = True
                self._track(addr)
            return True, None
        victim_addr = None
        if len(s) >= self.assoc:
            victim = min(s.values(), key=self._STAMP)
            del s[victim[0]]
            self.stats.evictions += 1
            vaddr = (victim[0] * self.num_sets + set_idx) * self.block
            if victim[1]:
                self.stats.dirty_evictions += 1
                self._untrack(vaddr)
                victim_addr = vaddr
            else:
                self.stats.clean_evictions += 1
        s[tag] = [tag, is_write, self.clock]
        if is_write:
            self._track(addr)
        return False, victim_addr

    def fill(self, addr, dirty=False):
        return self.access(addr, dirty)[1]

    def clean(self, addr):
        blk = addr // self.block
        s = self.sets.get(blk % self.num_sets)
        e = s.get(blk // self.num_sets) if s is not None else None
        if e is not None and e[1]:
            e[1] = False
            self._untrack(addr)
            return True
        return False

    def invalidate(self, addr):
        blk = addr // self.block
        s = self.sets.get(blk % self.num_sets)
        e = s.pop(blk // self.num_sets, None) if s is not None else None
        if e is None:
            return False
        if e[1]:
            self._untrack(addr)
        return True

    def lru_contents(self):
        """Per-set ``(tag, dirty)`` lists, least recently used first."""
        return {k: [(e[0], e[1]) for e in sorted(v.values(), key=self._STAMP)]
                for k, v in self.sets.items()}


#: 4 sets x 4 ways, so a dozen tags per set force steady evictions
LOCKSTEP_SETS, LOCKSTEP_WAYS = 4, 4


def _lockstep_row_of(addr):
    return addr // 512          # eight blocks (two per set) share a row


LOCKSTEP_GEOM = CacheGeometry(size_bytes=LOCKSTEP_SETS * LOCKSTEP_WAYS * 64,
                              assoc=LOCKSTEP_WAYS)


#: (operation, weight): references dominate so sets fill and evict
_OP_WEIGHTS = (("touch", 6), ("access", 6), ("fill", 3), ("clean", 2),
               ("invalidate", 1), ("probe", 2))

#: hypothesis picks the seed and length; the stream itself is drawn from
#: ``random`` so every example is long and dense (re-references, hits on
#: recently used lines, dirty and clean evictions)
_STREAMS = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 400))


def _ops(seed, n):
    """Seeded ``(op, block, is_write)`` stream over the lockstep blocks,
    half of it re-referencing one of the last eight blocks."""
    rng = random.Random(seed)
    names, weights = zip(*_OP_WEIGHTS)
    out = []
    for _ in range(n):
        if out and rng.random() < 0.5:
            blk = out[-rng.randrange(1, min(8, len(out)) + 1)][1]
        else:
            blk = rng.randrange(LOCKSTEP_SETS * 12)
        out.append((rng.choices(names, weights)[0], blk, rng.random() < 0.4))
    return out


def _apply(cache, op, addr, is_write):
    if op in ("touch", "access"):
        return getattr(cache, op)(addr, is_write)
    if op == "fill":
        return cache.fill(addr, dirty=is_write)
    return getattr(cache, op)(addr)


def _lru_contents(cache):
    return {k: list(v.items()) for k, v in cache._sets.items()}


class TestLRUOrderMatchesStampReference:
    """Key order is the LRU order: every operation returns and leaves
    exactly what the stamp/``min`` layout returned and left, with and
    without the dirty-row index."""

    @pytest.mark.parametrize("row_of", [None, _lockstep_row_of])
    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAMS)
    def test_lockstep(self, row_of, stream):
        cache = SRAMCache(LOCKSTEP_GEOM, row_of=row_of)
        ref = _StampLRUSRAM(LOCKSTEP_GEOM, row_of)
        for op, blk, is_write in _ops(*stream):
            addr = blk * 64
            assert _apply(cache, op, addr, is_write) == \
                _apply(ref, op, addr, is_write), (op, addr, is_write)
            assert _lru_contents(cache) == ref.lru_contents()
        assert cache.stats.snapshot() == ref.stats.snapshot()
        assert cache._dirty_rows == ref.dirty_rows
        for row in {_lockstep_row_of(b * 64) for b in range(48)}:
            assert cache.dirty_in_row(row) == sorted(ref.dirty_rows.get(row, ()))

    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAMS, blk=st.integers(0, LOCKSTEP_SETS * 12 - 1),
           is_write=st.booleans())
    def test_access_equals_touch_then_fill(self, stream, blk, is_write):
        """One ``access`` leaves what ``touch`` + ``fill``-on-a-miss leaves
        (the functional replays rely on it); only the miss's access count
        differs."""
        cache = SRAMCache(LOCKSTEP_GEOM, row_of=_lockstep_row_of)
        for op, b, w in _ops(*stream):
            _apply(cache, op, b * 64, w)
        one, two = cache, copy.deepcopy(cache)
        addr = blk * 64
        hit, victim = one.access(addr, is_write)
        two_hit = two.touch(addr, is_write)
        two_victim = None if two_hit else two.fill(addr, dirty=is_write)
        assert (hit, victim) == (two_hit, two_victim)
        assert _lru_contents(one) == _lru_contents(two)
        assert one._dirty_rows == two._dirty_rows
        one_stats, two_stats = one.stats.snapshot(), two.stats.snapshot()
        assert two_stats.pop("accesses") - one_stats.pop("accesses") == \
            (0 if hit else 1)
        one_stats.pop("hit_rate"), two_stats.pop("hit_rate")
        assert one_stats == two_stats


class TestFilterTraces:
    """The column L2 filter references a trace exactly as one
    ``SRAMCache.access`` per operation does, with and without the
    dirty-row index."""

    @pytest.mark.parametrize("row_of", [None, _lockstep_row_of])
    @settings(max_examples=100, deadline=None)
    @given(stream=_STREAMS, n_traces=st.integers(1, 3))
    def test_matches_per_reference_access(self, row_of, stream, n_traces):
        ops = _ops(*stream)
        half = len(ops) // 2
        cache = SRAMCache(LOCKSTEP_GEOM, row_of=row_of)
        for op, blk, is_write in ops[:half]:        # a populated start
            _apply(cache, op, blk * 64, is_write)
        ref = copy.deepcopy(cache)
        # Unaligned addresses: the filter reports block addresses.
        refs = [(i, blk * 64 + blk % 64, is_write, 0)
                for i, (_op, blk, is_write) in enumerate(ops[half:])]
        per = len(refs) // n_traces
        traces = [iter(refs[i * per:(i + 1) * per + 1])
                  for i in range(n_traces)]
        misses, rows, victims = cache.filter_traces(traces, per)

        expected_misses, expected_rows, expected_victims = [], [], []
        for i in range(n_traces):
            for _gap, addr, is_write, _pc in refs[i * per:(i + 1) * per]:
                hit, victim = ref.access(addr & ~63, is_write)
                if not hit:
                    if victim is not None:
                        expected_rows.append(len(expected_misses))
                        expected_victims.append(victim)
                    expected_misses.append(addr & ~63)
        assert misses.dtype == rows.dtype == victims.dtype == np.int64
        assert misses.tolist() == expected_misses
        assert rows.tolist() == expected_rows
        assert victims.tolist() == expected_victims
        assert _lru_contents(cache) == _lru_contents(ref)
        assert cache.stats.snapshot() == ref.stats.snapshot()
        assert cache._dirty_rows == ref._dirty_rows
        for row in {_lockstep_row_of(b * 64) for b in range(48)}:
            assert cache.dirty_in_row(row) == ref.dirty_in_row(row)
        # Exactly `per` operations were drawn from each trace.
        for i, trace in enumerate(traces):
            assert next(trace, None) == (refs[(i + 1) * per]
                                         if (i + 1) * per < len(refs)
                                         else None)


class TestInterleave:
    MISSES = np.array([10, 20, 30, 40], dtype=np.int64)
    # Misses 1 and 2 displaced dirty lines 5 and 7.
    ROWS = np.array([1, 2], dtype=np.int64)
    VICTIMS = np.array([5, 7], dtype=np.int64)

    def test_demand_first(self):
        addrs, is_victim = interleave(self.MISSES, self.ROWS, self.VICTIMS)
        assert addrs.tolist() == [10, 20, 5, 30, 7, 40]
        assert is_victim.tolist() == [False, False, True, False, True, False]

    def test_victims_first(self):
        addrs, is_victim = interleave(self.MISSES, self.ROWS, self.VICTIMS,
                                      victims_first=True)
        assert addrs.tolist() == [10, 5, 20, 7, 30, 40]
        assert is_victim.tolist() == [False, True, False, True, False, False]

    def test_inputs_untouched(self):
        interleave(self.MISSES, self.ROWS, self.VICTIMS)
        assert self.ROWS.tolist() == [1, 2]

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        addrs, is_victim = interleave(empty, empty, empty)
        assert len(addrs) == len(is_victim) == 0


class TestMSHR:
    """Stall, completion and capacity edges of ``MSHRFile``; allocation,
    coalescing and the wakeup invariant are in ``test_mshr_wakeup.py``."""

    def test_capacity_stall(self):
        m = MSHRFile(2)
        m.allocate(0x0, 0)
        m.allocate(0x40, 0)
        entry, fresh = m.allocate(0x80, 0)
        assert entry is None and not fresh
        assert m.stats.full_stalls == 1
        m.complete(0x0, now=10)            # a fill releases the held op
        entry, fresh = m.allocate(0x80, 10, retry=True)
        assert fresh and entry.block_addr == 0x80
        assert m.stats.full_stalls == 1

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            MSHRFile(1).complete(0x123, now=0)
        m = MSHRFile(1)
        m.allocate(0x40, 0)
        m.complete(0x40, now=5)
        with pytest.raises(KeyError):      # a second fill of the same block
            m.complete(0x40, now=6)

    def test_invalid_capacity(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                MSHRFile(capacity)


class TestLeeWriteback:
    @staticmethod
    def row_of(addr):
        return addr // 4096

    def _cache(self):
        return SRAMCache(CacheGeometry(size_bytes=64 * 1024, assoc=4),
                         row_of=self.row_of)

    def test_requires_tracking_cache(self):
        plain = SRAMCache(GEOM)
        with pytest.raises(ValueError):
            DRAMAwareWritebackIndex(plain, self.row_of)

    def test_batches_same_row(self):
        c = self._cache()
        idx = DRAMAwareWritebackIndex(c, self.row_of, batch_limit=4)
        for off in range(0, 5 * 64, 64):
            c.access(off, True)          # 5 dirty blocks in row 0
        batch = idx.on_dirty_eviction(0x0)
        assert len(batch) == 4           # limit honored; victim excluded
        assert 0x0 not in batch
        assert all(self.row_of(a) == 0 for a in batch)

    def test_batch_cleans_lines(self):
        c = self._cache()
        idx = DRAMAwareWritebackIndex(c, self.row_of, batch_limit=8)
        c.access(0x0, True)
        c.access(0x40, True)
        batch = idx.on_dirty_eviction(0x0)
        assert batch == [0x40]
        assert c.dirty_count() == 1      # only the victim line remains dirty
        assert idx.on_dirty_eviction(0x0) == []  # nothing left to batch

    def test_other_rows_untouched(self):
        c = self._cache()
        idx = DRAMAwareWritebackIndex(c, self.row_of)
        c.access(0x0, True)
        c.access(0x1000, True)           # row 1
        batch = idx.on_dirty_eviction(0x0)
        assert batch == []
        assert c.dirty_count() == 2

    def test_stats(self):
        c = self._cache()
        idx = DRAMAwareWritebackIndex(c, self.row_of)
        c.access(0x0, True)
        c.access(0x40, True)
        idx.on_dirty_eviction(0x0)
        assert idx.stats.triggers == 1
        assert idx.stats.eager_writebacks == 1
        assert idx.stats.batch_factor == 1.0
