"""End-to-end system runs: cores + L2 + controller + memory."""

from dataclasses import replace

import pytest

from repro.cache.dramcache import DRAMCacheArray
from repro.config import scaled_config
from repro.mem.sram import SRAMCache
from repro.sim.system import System
from repro.workloads.profiles import profile
from repro.workloads.scenarios import workload_profiles
from repro.workloads.table1 import mix_profiles

from reference import contents_signature

RUN = dict(warmup_insts=3_000, measure_insts=8_000, replay_accesses=20_000)


def small_system(design="CD", benchmarks=None, **kw):
    benchmarks = benchmarks or [profile("gcc"), profile("astar")]
    return System(scaled_config(8), design, benchmarks,
                  footprint_scale=1 / 64, seed=3, **kw)


class TestBasicRun:
    def test_completes_and_reports(self):
        r = small_system().run(**RUN)
        assert len(r.ipcs) == 2
        assert all(i > 0 for i in r.ipcs)
        assert r.elapsed_ps > 0
        assert r.reads_done > 0

    def test_deterministic(self):
        r1 = small_system("DCA").run(**RUN)
        r2 = small_system("DCA").run(**RUN)
        assert r1.ipcs == r2.ipcs
        assert r1.elapsed_ps == r2.elapsed_ps
        assert r1.dram_accesses == r2.dram_accesses

    def test_seed_changes_outcome(self):
        r1 = small_system().run(**RUN)
        r2 = System(scaled_config(8), "CD",
                    [profile("gcc"), profile("astar")],
                    footprint_scale=1 / 64, seed=4).run(**RUN)
        assert r1.ipcs != r2.ipcs

    def test_benchmark_names_recorded(self):
        r = small_system().run(**RUN)
        assert r.benchmarks == ["gcc", "astar"]

    def test_single_core(self):
        r = System(scaled_config(8), "CD", [profile("milc")],
                   footprint_scale=1 / 64, seed=1).run(**RUN)
        assert len(r.ipcs) == 1

    def test_four_core_mix(self):
        r = System(scaled_config(8), "DCA", mix_profiles(1),
                   footprint_scale=1 / 64, seed=1).run(**RUN)
        assert len(r.ipcs) == 4

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ValueError):
            System(scaled_config(8), "CD", [])


class TestWarmup:
    def test_functional_warmup_fills_cache(self):
        s = small_system()
        s.functional_warmup(replay_accesses=500)
        assert contents_signature(s.controller.array)[2]   # sets written

    def test_writebacks_need_l2_pressure(self):
        """A warmed L2 (full sets) is what produces dirty evictions."""
        s = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2)
        s.functional_warmup(replay_accesses=20_000)
        filled = sum(len(v) for v in s.l2._sets.values())
        assert filled >= s.l2.num_sets  # comfortably populated

    def test_warmup_resets_counters(self):
        s = small_system()
        s.functional_warmup(replay_accesses=500)
        assert s.controller.array.lookups == 0
        assert s.l2.stats.accesses == 0

    def test_warmup_makes_no_per_reference_calls(self, monkeypatch):
        """The replay and a workload's exact warm set go through the
        batched paths (filter_traces, fill_many), never through the
        per-reference L2 and array operations."""
        def per_reference(*_args, **_kwargs):
            raise AssertionError("per-reference call in the warm-up")

        s = System(scaled_config(8), "CD", workload_profiles(
            "conflict_vs_streams"), footprint_scale=1 / 64, seed=3)
        for cls, name in ((SRAMCache, "access"), (SRAMCache, "touch"),
                          (SRAMCache, "fill"),
                          (DRAMCacheArray, "lookup_read"),
                          (DRAMCacheArray, "lookup_write"),
                          (DRAMCacheArray, "fill")):
            monkeypatch.setattr(cls, name, per_reference)
        s.functional_warmup(replay_accesses=2_000)
        assert [c.trace.count for c in s.cores] == [2_000] * 4

    def test_skipping_warmup_lowers_hit_rate(self):
        warm = small_system().run(**RUN)
        s = small_system()
        s.begin(RUN["warmup_insts"], RUN["measure_insts"])
        cold = s.finish()
        assert warm.dram_read_hit_rate >= cold.dram_read_hit_rate


class TestTrafficShape:
    def test_writebacks_flow(self):
        # lbm is write-heavy: dirty evictions must reach the controller.
        r = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2).run(**RUN)
        assert r.writebacks > 0

    def test_misses_refill(self):
        r = small_system().run(**RUN)
        assert r.refills > 0 or r.dram_read_hit_rate > 0.99

    def test_substrate_stats_flow(self):
        r = small_system().run(**RUN)
        assert r.dram_accesses > 0
        assert 0.0 <= r.read_row_hit_rate <= 1.0

    def test_lee_writeback_counts(self):
        r = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2,
                   lee_writeback=True).run(**RUN)
        assert r.lee_eager_writebacks >= 0   # mechanism wired in


class TestDesignsEndToEnd:
    @pytest.mark.parametrize("design", ["CD", "ROD", "DCA"])
    @pytest.mark.parametrize("orgn", ["sa", "dm"])
    def test_all_variants_run(self, design, orgn):
        r = System(scaled_config(8), design, [profile("soplex"),
                                              profile("lbm")],
                   organization=orgn, footprint_scale=1 / 64,
                   seed=5).run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_xor_remap_runs(self):
        r = small_system(xor_remap=True).run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_frfcfs_scheduler_runs(self):
        r = small_system(scheduler="frfcfs").run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_dca_no_inversions_outside_drain(self):
        """DCA only issues LR-before-PR during hysteresis drains."""
        s = System(scaled_config(8), "DCA", mix_profiles(4),
                   footprint_scale=1 / 64, seed=1)
        r = s.run(**RUN)
        if s.controller.stats.lr_drain_issues == 0:
            assert r.read_priority_inversions == 0


#: Design points the sliced-run test covers: every design x scheduler on
#: the default substrate, plus DCA on the command-level substrate (a
#: short tREFI so refresh fires at this scale) and on banked main memory.
SLICED_POINTS = [
    *(pytest.param(d, sched, (), None, id=f"{d}-{sched}")
      for d in ("CD", "ROD", "DCA") for sched in ("bliss", "frfcfs")),
    pytest.param("DCA", "bliss", (("substrate.fidelity", "command"),
                                  ("timings.tREFI", 400_000)), None,
                 id="DCA-command"),
    pytest.param("DCA", "bliss", (("mainmem.model", "banked"),), None,
                 id="DCA-banked"),
    # The perf benchmark's write-storm point: FR-FCFS write drains on
    # command-level DRAM, with banked main memory and two ranks.
    pytest.param("DCA", "frfcfs", (("substrate.fidelity", "command"),
                                   ("mainmem.model", "banked"),
                                   ("org.ranks_per_channel", 2)),
                 "adversarial_writeback", id="DCA-wbstorm"),
]


class TestSlicedRuns:
    @staticmethod
    def begun(design, scheduler, overrides, workload):
        base = scaled_config(8)
        cfg = replace(base, l2=replace(base.l2, size_bytes=128 * 1024),
                      dram_cache=replace(base.dram_cache,
                                         size_bytes=8 * 2**20))
        benchmarks = (workload_profiles(workload) if workload
                      else [profile("mcf"), profile("libquantum")])
        s = System(cfg.with_overrides(overrides), design, benchmarks,
                   scheduler=scheduler, seed=7, footprint_scale=1 / 400)
        s.functional_warmup(replay_accesses=1_000)
        s.begin(2_000, 6_000)
        return s

    @pytest.mark.parametrize("design,scheduler,overrides,workload",
                             SLICED_POINTS)
    def test_interleaved_slices_match_straight_run(self, design, scheduler,
                                                   overrides, workload):
        """Two identical systems advanced in alternating event-loop
        slices each finish exactly as a straight-through run: the stop
        at the last core's retirement is exact however the loop is
        sliced, and each system draws its access ages from its own
        counter, so running another system in between changes nothing."""
        point = (design, scheduler, overrides, workload)
        straight = self.begun(*point)
        want = straight.finish().to_cache_dict()
        events = straight.sim.events_run
        seqs = straight.controller.translator._seq    # accesses it built
        a = self.begun(*point)
        b = self.begun(*point)
        slices = 0
        while a._finished < len(a.cores):
            a.sim.run(max_events=101)
            b.sim.run(max_events=101)
            slices += 1
        assert slices > 20
        assert b._finished == len(b.cores)
        assert a.finish().to_cache_dict() == want
        assert b.finish().to_cache_dict() == want
        assert a.sim.events_run == b.sim.events_run == events
        assert (a.controller.translator._seq == b.controller.translator._seq
                == seqs)
