"""Unified metrics registry: groups, derived metrics, hierarchy, snapshots."""

import json

import pytest

from repro.core.base import ControllerStats
from repro.dram.stats import ChannelStats
from repro.metrics.registry import MetricGroup, MetricRegistry, derived


class SampleStats(MetricGroup):
    COUNTERS = ("hits", "misses", "latency_sum_ps")

    @derived
    def accesses(self) -> int:
        return self.hits + self.misses

    @derived
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TestMetricGroup:
    def test_counters_start_at_zero(self):
        s = SampleStats()
        assert s.hits == 0 and s.misses == 0 and s.latency_sum_ps == 0

    def test_kwargs_constructor(self):
        s = SampleStats(hits=3, misses=1)
        assert s.hits == 3 and s.misses == 1

    def test_unknown_counter_rejected(self):
        with pytest.raises(TypeError):
            SampleStats(bogus=1)

    def test_hot_path_increment(self):
        s = SampleStats()
        s.hits += 5
        assert s.hits == 5

    def test_derived_computed_from_counters(self):
        s = SampleStats(hits=6, misses=2)
        assert s.accesses == 8
        assert s.hit_rate == 0.75

    def test_reset_zeroes_counters(self):
        s = SampleStats(hits=4, latency_sum_ps=100)
        s.reset()
        assert s.hits == 0 and s.latency_sum_ps == 0
        assert s.accesses == 0

    def test_merge_sums_without_mutating(self):
        a, b = SampleStats(hits=1, misses=2), SampleStats(hits=10)
        m = a.merge(b)
        assert (m.hits, m.misses) == (11, 2)
        assert a.hits == 1 and b.misses == 0

    def test_merge_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            SampleStats().merge(ChannelStats())

    def test_sum_many_and_empty(self):
        parts = [SampleStats(hits=i) for i in range(5)]
        assert SampleStats.sum(parts).hits == 10
        assert SampleStats.sum([]).hits == 0

    def test_equality_by_counters(self):
        assert SampleStats(hits=2) == SampleStats(hits=2)
        assert SampleStats(hits=2) != SampleStats(hits=3)


class TestSnapshotRoundTrip:
    def test_snapshot_has_counters_then_derived(self):
        snap = SampleStats(hits=3, misses=1).snapshot()
        assert list(snap) == ["hits", "misses", "latency_sum_ps",
                              "accesses", "hit_rate"]
        assert snap["hits"] == 3 and snap["accesses"] == 4

    def test_snapshot_counters_only(self):
        snap = SampleStats(hits=3).snapshot(include_derived=False)
        assert list(snap) == ["hits", "misses", "latency_sum_ps"]

    def test_from_snapshot_round_trip(self):
        s = SampleStats(hits=7, misses=3, latency_sum_ps=42)
        assert SampleStats.from_snapshot(s.snapshot()) == s

    def test_from_snapshot_ignores_derived_keys(self):
        s = SampleStats.from_snapshot(
            {"hits": 1, "misses": 0, "latency_sum_ps": 0,
             "accesses": 999, "hit_rate": 0.5})
        assert s.hits == 1 and s.accesses == 1

    def test_from_snapshot_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            SampleStats.from_snapshot({"hits": 1, "from_the_future": 2})

    def test_snapshot_json_round_trip(self):
        s = SampleStats(hits=2, misses=5)
        restored = SampleStats.from_snapshot(
            json.loads(json.dumps(s.snapshot())))
        assert restored == s


class TestFacades:
    """The per-layer stat classes are thin MetricGroup subclasses."""

    def test_channel_stats_derived(self):
        s = ChannelStats(read_accesses=30, write_accesses=10, turnarounds=4)
        assert s.accesses_per_turnaround == 10.0
        assert s.snapshot()["accesses_per_turnaround"] == 10.0

    def test_controller_stats_mean_latency(self):
        s = ControllerStats(reads_done=4, read_latency_sum_ps=400)
        assert s.mean_read_latency_ps == 100.0
        assert ControllerStats().mean_read_latency_ps == 0.0

    def test_controller_hit_rate(self):
        s = ControllerStats(read_hits=3, read_misses=1)
        assert s.dram_read_hit_rate == 0.75


class TestMetricRegistry:
    def make(self):
        reg = MetricRegistry()
        ctrl = reg.register("controller", SampleStats(hits=1))
        ch0 = reg.register("dram.ch0", ChannelStats(read_accesses=2))
        ch1 = reg.register("dram.ch1", ChannelStats(write_accesses=3))
        return reg, ctrl, ch0, ch1

    def test_nested_snapshot_shape(self):
        reg, *_ = self.make()
        snap = reg.snapshot()
        assert set(snap) == {"controller", "dram"}
        assert snap["dram"]["ch0"]["read_accesses"] == 2
        assert snap["dram"]["ch1"]["write_accesses"] == 3

    def test_registration_stores_live_object(self):
        reg, ctrl, *_ = self.make()
        ctrl.hits += 10
        assert reg.snapshot()["controller"]["hits"] == 11

    def test_duplicate_name_rejected(self):
        reg, *_ = self.make()
        with pytest.raises(ValueError):
            reg.register("controller", SampleStats())

    def test_cannot_nest_under_leaf(self):
        reg, *_ = self.make()
        with pytest.raises(ValueError):
            reg.register("controller.sub", SampleStats())

    def test_group_lookup_and_contains(self):
        reg, ctrl, ch0, _ = self.make()
        assert reg.group("controller") is ctrl
        assert reg.group("dram.ch0") is ch0
        assert "dram.ch1" in reg and "dram.ch9" not in reg

    def test_walk_yields_dotted_paths(self):
        reg, *_ = self.make()
        assert [p for p, _g in reg.walk()] == ["controller", "dram.ch0",
                                               "dram.ch1"]

    def test_reset_cascades(self):
        reg, ctrl, ch0, _ = self.make()
        reg.reset()
        assert ctrl.hits == 0 and ch0.read_accesses == 0

    def test_merge_structural(self):
        a, *_ = self.make()
        b, *_ = self.make()
        merged = a.merge(b)
        assert merged.snapshot()["dram"]["ch0"]["read_accesses"] == 4

    def test_merge_shape_mismatch_rejected(self):
        a, *_ = self.make()
        b = MetricRegistry()
        b.register("controller", SampleStats())
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricRegistry().register("", SampleStats())

    def test_rollup_sums_matching_leaves(self):
        reg, *_ = self.make()
        total = reg.rollup("dram.ch*")
        assert isinstance(total, ChannelStats)
        assert total.read_accesses == 2 and total.write_accesses == 3

    def test_rollup_match_all_rejects_mixed_types(self):
        reg, *_ = self.make()
        with pytest.raises(ValueError):
            reg.rollup("*")

    def test_rollup_no_match_raises(self):
        reg, *_ = self.make()
        with pytest.raises(KeyError):
            reg.rollup("hbm.ch*")

    def test_rollup_per_rank_pattern(self):
        """The cross-channel per-rank pattern the device rollup uses."""
        from repro.dram.stats import RankStats
        reg = MetricRegistry()
        reg.register("ch0", ChannelStats())
        reg.register("ch0_rank0", RankStats(acts=1))
        reg.register("ch0_rank1", RankStats(acts=2))
        reg.register("ch1", ChannelStats())
        reg.register("ch1_rank0", RankStats(acts=4))
        reg.register("ch1_rank1", RankStats(acts=8))
        assert reg.rollup("*_rank0").acts == 5
        assert reg.rollup("*_rank1").acts == 10


class TestSystemWiring:
    """The controller/system publish their counters through registries."""

    def test_controller_registry_tree(self, tiny_cfg):
        from repro.core import make_controller
        from repro.sim.engine import Simulator
        ctl = make_controller("CD", Simulator(), tiny_cfg)
        snap = ctl.metrics.snapshot()
        assert "controller" in snap
        assert set(snap["substrate"]) == {
            f"ch{i}" for i in range(tiny_cfg.org.channels)}

    def test_system_snapshot_covers_all_layers(self):
        from repro.config import scaled_config
        from repro.sim.system import System
        from repro.workloads.profiles import profile
        s = System(scaled_config(8), "DCA", [profile("gcc")],
                   footprint_scale=1 / 64, seed=1)
        snap = s.metrics.snapshot()
        assert {"controller", "substrate", "l2", "mainmem", "mapi"} <= set(snap)

    def test_system_and_controller_share_one_tree(self):
        """Single source of truth: a group registered at either level is
        visible from both, so the two views cannot diverge."""
        from repro.config import scaled_config
        from repro.sim.system import System
        from repro.workloads.profiles import profile
        s = System(scaled_config(8), "CD", [profile("gcc")],
                   footprint_scale=1 / 64, seed=1)
        assert s.metrics is s.controller.metrics
        extra = s.controller.metrics.register("tagcache", SampleStats(hits=9))
        assert s.metrics.snapshot()["tagcache"]["hits"] == 9
        assert extra is s.metrics.group("tagcache")


class TestRestoreEdgeCases:
    """Metric edge cases the snapshot/restore layer leans on.

    A restored run merges, resets and re-snapshots groups in states a
    straight-through run never produces (fresh-but-adopted registries,
    repeated warm-up boundaries), so those paths are pinned here.
    """

    def test_merge_into_empty_group(self):
        """Merging into a freshly-constructed group is the identity."""
        populated = SampleStats(hits=7, misses=3, latency_sum_ps=1200)
        merged = SampleStats().merge(populated)
        assert merged == populated
        assert merged.snapshot() == populated.snapshot()
        # ...and in both directions.
        assert populated.merge(SampleStats()) == populated

    def test_merge_into_empty_registry_tree(self):
        full = MetricRegistry()
        full.register("a", SampleStats(hits=2))
        full.register("sub.b", SampleStats(misses=5))
        empty = MetricRegistry()
        empty.register("a", SampleStats())
        empty.register("sub.b", SampleStats())
        merged = empty.merge(full)
        assert merged.snapshot() == full.snapshot()

    def test_double_reset_is_idempotent(self):
        s = SampleStats(hits=4, misses=4)
        s.reset()
        first = s.snapshot()
        s.reset()
        assert s.snapshot() == first
        assert s.hits == 0 and s.hit_rate == 0.0
        reg = MetricRegistry()
        reg.register("x", s)
        reg.reset()
        reg.reset()
        assert reg.snapshot() == {"x": first}

    def test_snapshot_restore_round_trip_after_reset(self):
        s = SampleStats(hits=9)
        s.reset()
        restored = SampleStats.from_snapshot(s.snapshot())
        assert restored == s
