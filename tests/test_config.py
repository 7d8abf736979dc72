"""Table II configuration values and unit conversions."""

from dataclasses import replace

import pytest

from repro.config import (
    BLISSConfig,
    CacheGeometry,
    DRAMCacheGeometry,
    DRAMOrganization,
    DRAMTimings,
    MainMemoryConfig,
    QueueConfig,
    ns,
    paper_config,
    scaled_config,
)


class TestNs:
    def test_integer_ns(self):
        assert ns(8) == 8000

    def test_fractional_ns(self):
        assert ns(3.33) == 3330
        assert ns(1.67) == 1670
        assert ns(7.5) == 7500

    def test_rounding(self):
        assert ns(0.0004) == 0
        assert ns(0.0006) == 1


class TestDRAMTimings:
    def test_stacked_matches_table2(self):
        t = DRAMTimings.stacked()
        assert (t.tRCD, t.tCAS, t.tRP, t.tRAS) == (8000, 8000, 8000, 30000)
        assert (t.tWTR, t.tRTP, t.tRTW) == (5000, 7500, 1670)
        assert (t.tWR, t.tBURST) == (15000, 3330)

    def test_ddr3_turnarounds_larger(self):
        ddr3 = DRAMTimings.ddr3_1600()
        stacked = DRAMTimings.stacked()
        assert ddr3.tWTR > stacked.tWTR
        assert ddr3.tRTW > stacked.tRTW

    def test_frozen(self):
        t = DRAMTimings.stacked()
        with pytest.raises(AttributeError):
            t.tRCD = 1


class TestOrganization:
    def test_table2_geometry(self):
        o = DRAMOrganization()
        assert o.channels == 4
        assert o.banks_per_rank == 16
        assert o.ranks_per_channel == 1
        assert o.row_bytes == 4096
        assert o.total_banks == 64
        assert o.blocks_per_row == 64

    def test_default_interleave(self):
        assert DRAMOrganization().interleave == "robarachco"

    def test_non_power_of_two_rejected_at_construction(self):
        """Fail-fast: a bad geometry never survives long enough to build
        a mapper — sweep expansion catches it at spec-build time."""
        for field, value in [("channels", 3), ("ranks_per_channel", 6),
                             ("banks_per_rank", 10), ("row_bytes", 3000),
                             ("block_bytes", 48), ("channels", 0),
                             ("row_bytes", -4096)]:
            with pytest.raises(ValueError, match=field):
                DRAMOrganization(**{field: value})

    def test_row_smaller_than_block_rejected(self):
        with pytest.raises(ValueError, match="row_bytes"):
            DRAMOrganization(row_bytes=32, block_bytes=64)

    def test_unknown_interleave_rejected(self):
        for name in ("corachbaro", "rorabachco"):
            with pytest.raises(ValueError, match="interleave"):
                DRAMOrganization(interleave=name)
        # A sweep token "none" arrives as None: no string field takes it.
        with pytest.raises(ValueError, match="unknown interleave policy"):
            paper_config().with_overrides([("org.interleave", None)])


class TestQueueConfig:
    def test_default_sizes(self):
        """Unset sizes mean "the design's Table II size"."""
        q = QueueConfig()
        assert q.read_entries is None and q.write_entries is None
        q = QueueConfig().for_design("CD")
        assert q.read_entries == 64
        assert q.write_entries == 64

    def test_rod_sizes(self):
        q = QueueConfig().for_design("ROD")
        assert q.read_entries == 32
        assert q.write_entries == 96

    def test_rod_case_insensitive(self):
        assert QueueConfig().for_design("rod").read_entries == 32

    def test_other_designs_default(self):
        for d in ("CD", "DCA", "cd", "dca"):
            q = QueueConfig().for_design(d)
            assert (q.read_entries, q.write_entries) == (64, 64)

    def test_set_sizes_survive_for_design(self):
        for d in ("CD", "ROD", "DCA"):
            q = QueueConfig(read_entries=16).for_design(d)
            assert q.read_entries == 16
            q = QueueConfig(write_entries=64).for_design(d)
            assert q.write_entries == 64

    def test_watermarks(self):
        q = QueueConfig()
        assert q.write_low_watermark == 0.50
        assert q.write_high_watermark == 0.85
        assert q.lr_drain_low == 0.75
        assert q.lr_drain_high == 0.85

    def test_positive_windows(self):
        q = QueueConfig()
        assert q.issue_window >= 1
        assert q.opportunistic_min_batch >= 1


class TestDRAMCacheGeometry:
    def test_paper_capacity(self):
        g = DRAMCacheGeometry()
        assert g.size_bytes == 256 * 2**20
        assert g.data_capacity == 240 * 2**20

    def test_sets_consistent_with_capacity(self):
        g = DRAMCacheGeometry()
        assert g.sa_sets * g.sa_ways * g.block_bytes == g.data_capacity
        assert g.dm_entries * g.block_bytes == g.data_capacity

    def test_sa_15_way(self):
        assert DRAMCacheGeometry().sa_ways == 15


class TestCacheGeometry:
    def test_l1_sets(self):
        g = CacheGeometry(size_bytes=32 * 1024, assoc=2)
        assert g.num_sets == 256

    def test_l2_sets(self):
        g = CacheGeometry(size_bytes=8 * 2**20, assoc=16)
        assert g.num_sets == 8192


class TestMainMemoryConfig:
    def test_latency(self):
        assert MainMemoryConfig().latency_ps == 50_000

    def test_bus_occupancy(self):
        # 64 B over a 64-bit 2 GHz bus: 8 transfers at 0.5 ns.
        assert MainMemoryConfig().bus_occupancy_ps == 4000

    def test_default_model_is_flat(self):
        assert MainMemoryConfig().model == "flat"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            MainMemoryConfig(model="quantum")

    def test_banked_defaults_are_ddr3_two_rank(self):
        cfg = MainMemoryConfig(model="banked")
        assert cfg.org.channels == 2
        assert cfg.org.ranks_per_channel == 2
        assert cfg.org.banks_per_rank == 8
        assert cfg.org.row_bytes == 8192
        assert cfg.timings == DRAMTimings.ddr3_1600()

    def test_ddr3_rank_turnaround(self):
        """gem5's DDR3_1600_x64 different-rank bus delay: 2 CK = 2.5 ns."""
        assert DRAMTimings.ddr3_1600().tCS == 2500

    def test_stacked_has_free_rank_switch(self):
        """tCS=0 keeps the single-rank stacked part bit-identical."""
        assert DRAMTimings.stacked().tCS == 0

    def test_negative_tcs_rejected(self):
        from dataclasses import replace
        with pytest.raises(ValueError, match="tCS"):
            replace(DRAMTimings.ddr3_1600(), tCS=-1)


class TestSystemConfig:
    def test_paper_config_cores(self):
        assert paper_config().num_cores == 4

    def test_cpu_cycle(self):
        assert paper_config().cpu.cycle_ps == 250

    def test_scaled_divides_capacities(self):
        full, scaled = paper_config(), scaled_config(8)
        assert scaled.l2.size_bytes == full.l2.size_bytes // 8
        assert scaled.dram_cache.size_bytes == full.dram_cache.size_bytes // 8

    def test_scaled_preserves_timings_and_queues(self):
        full, scaled = paper_config(), scaled_config(8)
        assert scaled.timings == full.timings
        assert scaled.queues == full.queues
        assert scaled.org == full.org

    def test_with_overrides_nested_paths(self):
        cfg = paper_config().with_overrides({
            "queues.read_entries": 16,
            "org.channels": 8,
            "queues.write_high_watermark": 0.9,
        })
        assert cfg.queues.read_entries == 16
        assert cfg.org.channels == 8
        assert cfg.queues.write_high_watermark == 0.9
        # untouched fields survive
        assert cfg.queues.write_entries is None
        assert cfg.queues.issue_window == 8
        assert cfg.org.banks_per_rank == 16

    def test_with_overrides_coerces_to_field_type(self):
        """An int sweep value targeting a float field must not create a
        distinct-but-equal config (cache keys would diverge)."""
        cfg = paper_config().with_overrides(
            [("queues.write_high_watermark", 1)])
        assert cfg.queues.write_high_watermark == 1.0
        assert isinstance(cfg.queues.write_high_watermark, float)
        cfg = paper_config().with_overrides([("num_cores", 8.0)])
        assert cfg.num_cores == 8 and isinstance(cfg.num_cores, int)

    def test_with_overrides_rejects_fractional_int(self):
        with pytest.raises(ValueError):
            paper_config().with_overrides([("queues.read_entries", 16.5)])

    def test_with_overrides_rejects_bool_for_int(self):
        """True would silently become a 1-entry queue."""
        with pytest.raises(ValueError, match="bool"):
            paper_config().with_overrides([("queues.read_entries", True)])

    def test_with_overrides_non_queue_path_not_explicit(self):
        cfg = paper_config().with_overrides([("org.channels", 2)])
        assert cfg.queues == QueueConfig()

    def test_with_overrides_unknown_path(self):
        with pytest.raises(ValueError, match="unknown config field"):
            paper_config().with_overrides([("queues.bogus", 1)])
        with pytest.raises(ValueError, match="unknown config field"):
            paper_config().with_overrides([("bogus.x", 1)])
        with pytest.raises(ValueError, match="unknown config field"):
            paper_config().with_overrides([("dca.rrpc_bits", 2)])
        # The deleted hierarchy and substrate knobs fail like any other
        # unknown field.
        for path, value in (("prefetch.kind", "nextline"),
                            ("writebuf.depth", 8),
                            ("l2.replacement", "lruc"),
                            ("org.replacement", "lrud"),
                            ("substrate.page_policy", "closed"),
                            ("substrate.page_timeout_ps", 200_000),
                            ("substrate.refresh", False)):
            with pytest.raises(ValueError, match="unknown config field"):
                paper_config().with_overrides([(path, value)])

    def test_with_overrides_path_through_scalar(self):
        """Descending into a scalar is a ValueError, not AttributeError,
        and int attributes like .real are not addressable."""
        with pytest.raises(ValueError, match="scalar"):
            paper_config().with_overrides([("num_cores.x", 1)])
        with pytest.raises(ValueError, match="scalar"):
            paper_config().with_overrides([("num_cores.real", 1)])

    def test_with_overrides_property_not_addressable(self):
        """Only declared fields are settable; derived properties
        (org.total_banks) must be rejected, replace() can't set them."""
        with pytest.raises(ValueError, match="unknown config field"):
            paper_config().with_overrides([("org.total_banks", 8)])

    def test_with_overrides_group_path_rejected(self):
        with pytest.raises(ValueError, match="group, not a scalar"):
            paper_config().with_overrides([("queues", 1)])

    def test_explicit_queues_survive_controller(self):
        """The per-design Table II sizes fill only unset sizes: explicit
        queue overrides (sweep axes) win, stock configs get Table II."""
        from repro.core import make_controller
        from repro.sim.engine import Simulator
        cfg = scaled_config().with_overrides([("queues.read_entries", 16)])
        ctrl = make_controller("ROD", Simulator(), cfg)
        assert ctrl.cfg.queues.read_entries == 16
        assert ctrl.cfg.queues.write_entries == 96
        stock = make_controller("ROD", Simulator(), scaled_config())
        assert stock.cfg.queues.read_entries == 32
        assert stock.cfg.queues.write_entries == 96

    def test_queue_group_set_directly_survives_system(self):
        """A QueueConfig built by hand (not through overrides) keeps every
        field it sets: the controller used to swap the whole group for
        the design's Table II defaults, so this CD system silently ran
        with an issue window of 8 and 64 read entries."""
        from repro.sim.system import System
        from repro.workloads import mix_profiles
        queues = replace(QueueConfig(), issue_window=2, read_entries=16)
        s = System(replace(scaled_config(), queues=queues), "CD",
                   mix_profiles(1), footprint_scale=1 / 400, seed=1)
        q = s.controller.cfg.queues
        assert (q.issue_window, q.read_entries, q.write_entries) == (2, 16, 64)
        assert s.controller.read_q[0].capacity == 16
        rod = System(replace(scaled_config(), queues=queues), "ROD",
                     mix_profiles(1), footprint_scale=1 / 400, seed=1)
        q = rod.controller.cfg.queues
        assert (q.issue_window, q.read_entries, q.write_entries) == (2, 16, 96)

    def test_bliss_defaults(self):
        b = BLISSConfig()
        assert b.blacklist_threshold == 4
        assert b.clearing_interval_ps == 10_000_000  # 10 us
