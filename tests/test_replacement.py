"""Victim-selection policies across both cache organisations."""

import pytest

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.replacement import SA_POLICIES, SRAM_POLICIES
from repro.config import (CacheGeometry, DRAMCacheGeometry, DRAMOrganization,
                          scaled_config)
from repro.mem.sram import SRAMCache
from repro.sim.system import System
from repro.workloads.profiles import profile


def sram_set():
    # {tag: dirty} in LRU order (least recent first)
    return {2: True, 3: False, 1: False, 4: True}


class TestSRAMPolicies:
    def test_lru_picks_oldest(self):
        assert SRAM_POLICIES["lru"](sram_set()) == 2

    def test_lruc_prefers_oldest_clean(self):
        assert SRAM_POLICIES["lruc"](sram_set()) == 3

    def test_lrud_prefers_oldest_dirty(self):
        assert SRAM_POLICIES["lrud"](sram_set()) == 2

    def test_lruc_falls_back_when_all_dirty(self):
        s = {2: True, 1: True}
        assert SRAM_POLICIES["lruc"](s) == 2

    def test_lrud_falls_back_when_all_clean(self):
        s = {2: False, 1: False}
        assert SRAM_POLICIES["lrud"](s) == 2


class TestSAPolicies:
    TAGS = [11, 12, 13, 14]
    DIRTY = [False, True, False, True]
    STAMP = [10, 5, 7, 20]

    def test_lru(self):
        assert SA_POLICIES["lru"](self.TAGS, self.DIRTY, self.STAMP) == 1

    def test_lruc(self):
        assert SA_POLICIES["lruc"](self.TAGS, self.DIRTY, self.STAMP) == 2

    def test_lrud(self):
        assert SA_POLICIES["lrud"](self.TAGS, self.DIRTY, self.STAMP) == 1

    def test_fallbacks(self):
        all_clean = [False] * 4
        all_dirty = [True] * 4
        assert SA_POLICIES["lrud"](self.TAGS, all_clean, self.STAMP) == 1
        assert SA_POLICIES["lruc"](self.TAGS, all_dirty, self.STAMP) == 1


def small_cache(policy):
    # 4096 B / (64 B x 2 ways) = 32 sets; set-0 addresses stride by 2048.
    return SRAMCache(CacheGeometry(size_bytes=4096, assoc=2,
                                   latency_cycles=1, replacement=policy))


class TestSRAMCacheEviction:
    def test_lru_evicts_oldest(self):
        c = small_cache("lru")
        c.access(0, False)                 # older, clean
        c.access(2048, True)               # newer, dirty
        hit, victim = c.access(4096, False)
        assert not hit and victim is None  # clean victim: no writeback
        assert c.stats.clean_evictions == 1
        assert c.probe(2048)               # the dirty line survived

    def test_lrud_evicts_dirty_first(self):
        c = small_cache("lrud")
        c.access(0, False)
        c.access(2048, True)
        _hit, victim = c.access(4096, False)
        assert victim == 2048              # dirty victim despite being newer
        assert c.stats.dirty_evictions == 1
        assert c.probe(0)

    def test_lruc_spares_the_dirty_line(self):
        c = small_cache("lruc")
        c.access(0, True)                  # older, dirty
        c.access(2048, False)              # newer, clean
        _hit, victim = c.access(4096, False)
        assert victim is None
        assert c.stats.clean_evictions == 1
        assert c.probe(0)


def fill_set0(arr, n):
    stride = arr.sa.num_sets * arr.geometry.block_bytes
    addrs = [k * stride for k in range(n)]
    for a in addrs:
        arr.fill(a, dirty=False)
    return addrs, stride


class TestSAArrayEviction:
    def test_lru_default_victims_oldest(self):
        arr = DRAMCacheArray(DRAMCacheGeometry(), "sa")
        addrs, stride = fill_set0(arr, arr.sa.ways)
        arr.lookup_write(addrs[1])         # dirty + most recent
        res = arr.fill(arr.sa.ways * stride, dirty=False)
        assert res.victim_block_addr == addrs[0]
        assert not res.victim_dirty

    def test_lrud_victims_dirty_way(self):
        arr = DRAMCacheArray(DRAMCacheGeometry(), "sa", replacement="lrud")
        addrs, stride = fill_set0(arr, arr.sa.ways)
        arr.lookup_write(addrs[1])
        res = arr.fill(arr.sa.ways * stride, dirty=False)
        assert res.victim_block_addr == addrs[1]
        assert res.victim_dirty

    def test_lruc_victims_oldest_clean_way(self):
        arr = DRAMCacheArray(DRAMCacheGeometry(), "sa", replacement="lruc")
        stride = arr.sa.num_sets * arr.geometry.block_bytes
        addrs = [k * stride for k in range(arr.sa.ways)]
        arr.fill(addrs[0], dirty=True)     # the oldest way is dirty
        for a in addrs[1:]:
            arr.fill(a, dirty=False)
        res = arr.fill(arr.sa.ways * stride, dirty=False)
        assert res.victim_block_addr == addrs[1]
        assert not res.victim_dirty

    def test_invalid_ways_fill_before_policy_applies(self):
        arr = DRAMCacheArray(DRAMCacheGeometry(), "sa", replacement="lrud")
        addrs, stride = fill_set0(arr, 3)
        arr.lookup_write(addrs[0])
        res = arr.fill(3 * stride, dirty=False)
        assert res.victim_block_addr is None


class TestConfigValidation:
    def test_bogus_policies_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=4096, assoc=2, latency_cycles=1,
                          replacement="mru")
        with pytest.raises(ValueError):
            DRAMOrganization(replacement="rrip")

    def test_sweepable_via_dotted_overrides(self):
        cfg = scaled_config(8).with_overrides(
            [("org.replacement", "lrud"), ("l2.replacement", "lruc")])
        assert cfg.org.replacement == "lrud"
        assert cfg.l2.replacement == "lruc"


class TestSystemIntegration:
    def test_system_runs_with_nondefault_policies(self):
        cfg = scaled_config(8).with_overrides(
            [("org.replacement", "lrud"), ("l2.replacement", "lruc")])
        s = System(cfg, "DCA", [profile("lbm"), profile("gcc")],
                   footprint_scale=1 / 64, seed=4)
        r = s.run(warmup_insts=3_000, measure_insts=8_000,
                  replay_accesses=20_000)
        assert all(i > 0 for i in r.ipcs)
        assert r.metrics["l2"]["clean_evictions"] >= 0
        assert s.controller.array.replacement == "lrud"
