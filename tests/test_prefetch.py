"""Prefetchers: candidate generation, training, system integration."""

import pytest

from repro.config import PrefetchConfig, scaled_config
from repro.mem.prefetch import (NextLinePrefetcher, StridePrefetcher,
                                make_prefetcher)
from repro.sim.system import System
from repro.workloads.profiles import profile

BLOCK = 64


class TestNextLine:
    def test_miss_triggers_next_lines(self):
        pf = NextLinePrefetcher(BLOCK, degree=2)
        assert list(pf.on_access(0x1000, 0, hit=False)) == [0x1040, 0x1080]

    def test_hit_is_quiet(self):
        pf = NextLinePrefetcher(BLOCK)
        assert list(pf.on_access(0x1000, 0, hit=True)) == []

    def test_fill_extends_the_stream(self):
        pf = NextLinePrefetcher(BLOCK, degree=2)
        assert list(pf.on_fill(0x1040)) == [0x1040 + 2 * BLOCK]


class TestStride:
    def make(self, **kw):
        kw.setdefault("min_confidence", 2)
        return StridePrefetcher(BLOCK, **kw)

    def test_needs_confidence_before_issuing(self):
        pf = self.make()
        pc = 0x400
        assert list(pf.on_access(0x1000, pc, False)) == []   # allocate
        assert list(pf.on_access(0x1080, pc, False)) == []   # conf 1
        assert list(pf.on_access(0x1100, pc, False)) == [0x1180]  # conf 2

    def test_degree_projects_multiple_strides(self):
        pf = self.make(degree=3)
        pc = 0x400
        for addr in (0x1000, 0x1080, 0x1100):
            out = pf.on_access(addr, pc, False)
        assert list(out) == [0x1180, 0x1200, 0x1280]

    def test_stride_change_resets_confidence(self):
        pf = self.make()
        pc = 0x400
        for addr in (0x1000, 0x1080, 0x1100):
            pf.on_access(addr, pc, False)
        assert list(pf.on_access(0x1140, pc, False)) == []   # new stride: conf 1
        assert list(pf.on_access(0x1180, pc, False)) == [0x11C0]  # conf 2

    def test_zero_stride_never_issues(self):
        pf = self.make()
        pc = 0x400
        for _ in range(5):
            assert list(pf.on_access(0x1000, pc, False)) == []

    def test_table_aliasing_replaces_entry(self):
        pf = self.make(table_entries=4)
        pf.on_access(0x1000, 1, False)
        pf.on_access(0x1080, 1, False)
        pf.on_access(0x2000, 5, False)     # 5 % 4 == 1: evicts pc 1
        assert list(pf.on_access(0x1100, 1, False)) == []    # retrains

    def test_fill_is_quiet(self):
        assert list(self.make().on_fill(0x1000)) == []


class TestFactory:
    def test_dispatch(self):
        assert isinstance(
            make_prefetcher(PrefetchConfig(kind="nextline"), BLOCK),
            NextLinePrefetcher)
        assert isinstance(
            make_prefetcher(PrefetchConfig(kind="stride"), BLOCK),
            StridePrefetcher)

    def test_none_has_no_prefetcher(self):
        with pytest.raises(ValueError):
            make_prefetcher(PrefetchConfig(kind="none"), BLOCK)


def run_system(overrides, benchmarks=None, **kw):
    cfg = scaled_config(8).with_overrides(overrides)
    benchmarks = benchmarks or [profile("lbm"), profile("milc")]
    s = System(cfg, "CD", benchmarks, footprint_scale=1 / 64, seed=3, **kw)
    return s, s.run(warmup_insts=3_000, measure_insts=8_000,
                    replay_accesses=20_000)


class TestSystemIntegration:
    def test_nextline_prefetching_is_useful(self):
        _s, r = run_system([("prefetch.kind", "nextline"),
                            ("writebuf.depth", 4)])
        assert r.prefetch_issued > 0
        assert r.prefetch_useful > 0
        assert r.writebuf_drain_stalls >= 0
        pf = r.metrics["prefetch"]
        assert 0.0 <= pf["accuracy"] <= 1.0
        assert pf["issued"] == r.prefetch_issued
        assert pf["useful"] >= pf["late"]

    def test_stride_prefetcher_runs(self):
        _s, r = run_system([("prefetch.kind", "stride"),
                            ("prefetch.degree", 2)])
        assert "prefetch" in r.metrics
        assert r.prefetch_issued >= 0
        assert all(i > 0 for i in r.ipcs)

    def test_default_config_mounts_no_prefetch_group(self):
        _s, r = run_system([])
        assert "prefetch" not in r.metrics
        assert r.prefetch_issued == 0 == r.prefetch_useful

    def test_partition_must_leave_demand_slots(self):
        cfg = scaled_config(8).with_overrides(
            [("prefetch.kind", "nextline"), ("prefetch.mshr_entries", 32)])
        with pytest.raises(ValueError):
            System(cfg, "CD", [profile("gcc")], footprint_scale=1 / 64)
