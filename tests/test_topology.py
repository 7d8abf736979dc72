"""End-to-end memory-topology generalisation.

The PR-8 surface: `mainmem.model` (flat vs banked off-chip memory),
pluggable interleave policies, and the rank dimension — all sweepable
through the ordinary RunSpec/SweepSpec config paths, all visible in the
result metrics, and all transparent to the warm-cache layer (sliced
banked runs are covered in tests/test_system.py).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import MainMemoryConfig, scaled_config
from repro.experiments.common import RunSpec, SimParams, run_one
from repro.mem.mainmem import make_mainmem
from repro.scenarios import SweepSpec
from repro.sim.engine import Simulator
from repro.sim.system import System
from repro.snapshot import WarmCache
from repro.workloads.profiles import profile

#: tiny budgets + tiny footprints keep every run in the ~100 ms range
PARAMS = SimParams(footprint_scale=1 / 400, warmup_insts=2_000,
                   measure_insts=5_000, replay_accesses=1_000)

BANKED = (("mainmem.model", "banked"),)


def strip_meta(result) -> dict:
    d = result.to_cache_dict()
    d.pop("meta")
    return d


class TestMainmemModelAxis:
    """`mainmem.model` as an end-to-end sweepable config path."""

    def test_banked_run_publishes_device_metrics(self):
        res = run_one(RunSpec("DCA", "sa", mix_id=1, config=BANKED), PARAMS)
        mm = res.metrics["mainmem"]
        assert mm["reads"] > 0
        dev = res.metrics["mainmem_dev"]
        assert "ch0" in dev and "ch1" in dev
        total = res.metrics["mainmem_total"]
        assert (total["read_accesses"] + total["write_accesses"]
                == mm["reads"] + mm["writes"])
        # Banked defaults: 2 ranks/channel -> rank switches happen.
        assert total["rank_switches"] > 0

    def test_flat_default_keeps_metric_key_set(self):
        """The default tree gains no topology keys (golden-pin contract)."""
        res = run_one(RunSpec("DCA", "sa", mix_id=1), PARAMS)
        for key in ("mainmem_dev", "mainmem_total", "rank_totals"):
            assert key not in res.metrics

    def test_flat_and_banked_timings_differ(self):
        """The banked timing model is real — fetches see bank timing
        (ACT+CAS+burst, row hits) instead of the fixed 50 ns."""
        flat = run_one(RunSpec("CD", "sa", mix_id=1), PARAMS)
        banked = run_one(RunSpec("CD", "sa", mix_id=1, config=BANKED),
                         PARAMS)
        assert (flat.metrics["mainmem"]["mean_read_latency_ps"]
                != banked.metrics["mainmem"]["mean_read_latency_ps"])

    def test_banked_org_is_sweepable(self):
        cfg = BANKED + (("mainmem.org.channels", 4),
                        ("mainmem.org.ranks_per_channel", 1))
        res = run_one(RunSpec("CD", "sa", mix_id=1, config=cfg), PARAMS)
        dev = res.metrics["mainmem_dev"]
        assert set(dev) == {"ch0", "ch1", "ch2", "ch3"}
        assert res.metrics["mainmem_total"]["rank_switches"] == 0

    def test_banked_command_fidelity_publishes_rank_groups(self):
        cfg = BANKED + (("mainmem.substrate.fidelity", "command"),)
        res = run_one(RunSpec("CD", "sa", mix_id=1, config=cfg), PARAMS)
        dev = res.metrics["mainmem_dev"]
        assert "ch0_rank0" in dev and "ch0_rank1" in dev
        assert dev["ch0"]["refreshes_issued"] >= 0   # command counters live


class TestInterleaveAxis:
    """`org.interleave` (and the mainmem copy) as sweep axes."""

    def test_chxor_changes_channel_distribution(self):
        a = run_one(RunSpec("DCA", "sa", mix_id=1), PARAMS)
        b = run_one(RunSpec("DCA", "sa", mix_id=1,
                            config=(("org.interleave", "chxor"),)), PARAMS)
        assert strip_meta(a) != strip_meta(b)

    def test_mainmem_interleave_is_independent(self):
        cfg = BANKED + (("mainmem.org.interleave", "chxor"),)
        res = run_one(RunSpec("CD", "sa", mix_id=1, config=cfg), PARAMS)
        assert res.metrics["mainmem"]["reads"] > 0

    def test_sweep_spec_expands_topology_axes(self):
        sw = SweepSpec("topo", axes={"mainmem.model": ["flat", "banked"],
                                     "org.interleave": ["robarachco",
                                                        "chxor"]},
                       base={"mix_id": 1, "design": "CD"})
        assert len(sw.compile()) == 4

    def test_sweep_spec_rejects_bad_topology_values_at_build(self):
        """Fail-fast: a bad axis value dies at spec build, not mid-sweep."""
        with pytest.raises(ValueError):
            SweepSpec("bad", axes={"org.interleave": ["corachbaro"]},
                      base={"mix_id": 1, "design": "CD"})
        with pytest.raises(ValueError):
            SweepSpec("bad", axes={"mainmem.org.channels": [3]},
                      base={"mix_id": 1, "design": "CD"})


class TestPerRankStats:
    """The rank dimension end-to-end on the stacked (cache) substrate."""

    def make_result(self):
        spec = RunSpec("DCA", "sa", mix_id=1,
                       config=(("org.ranks_per_channel", 2),
                               ("substrate.fidelity", "command"),
                               ("timings.tREFI", 400_000)))
        return run_one(spec, PARAMS)

    def test_rank_groups_and_rollup_published(self):
        res = self.make_result()
        sub = res.metrics["substrate"]
        assert "ch0_rank0" in sub and "ch0_rank1" in sub
        ranks = res.metrics["rank_totals"]
        assert set(ranks) == {"rank0", "rank1"}

    def test_rank_rollup_consistent_with_channel_totals(self):
        res = self.make_result()
        ranks = res.metrics["rank_totals"]
        total = res.metrics["substrate_total"]
        for counter in ("refreshes_issued", "refreshes_postponed",
                        "rrd_stalls", "faw_stalls", "refresh_stalls"):
            assert (ranks["rank0"][counter] + ranks["rank1"][counter]
                    == total[counter]), counter
        assert ranks["rank0"]["refreshes_issued"] > 0
        assert ranks["rank1"]["refreshes_issued"] > 0

    def test_rank_switches_counted(self):
        res = self.make_result()
        assert res.metrics["substrate_total"]["rank_switches"] > 0


def _sink(addr: object) -> None:
    """Completion callback of the fetch loop; the events are never run."""


class TestChannelScaling:
    """More channels relieve bus and bank contention: on one address
    stream, banked memory with 1, 2 and 4 channels gives a falling mean
    read latency.  Every fetch is issued at ``now=0``, so each access
    queues behind all earlier ones on its channel."""

    def test_mean_read_latency_falls_with_channels(self):
        rng = random.Random(137)
        addrs = [rng.randrange(1 << 28) & ~63 for _ in range(2_000)]
        latencies = []
        for channels in (1, 2, 4):
            cfg = MainMemoryConfig(model="banked")
            cfg = replace(cfg, org=replace(cfg.org, channels=channels))
            mm = make_mainmem(Simulator(), cfg)
            for addr in addrs:
                mm.fetch(addr, _sink)
            assert mm.stats.reads == len(addrs)
            latencies.append(mm.stats.mean_read_latency_ps)
        assert latencies[0] > latencies[1] > latencies[2], latencies


class TestBankedWarmCache:
    """Warm states are functional-only, so they cross mainmem models."""

    def test_warm_restore_round_trip_banked(self):
        donor = RunSpec("CD", "sa", mix_id=1, config=BANKED)
        spec = RunSpec("DCA", "sa", mix_id=1, config=BANKED)
        cache = WarmCache()
        run_one(donor, PARAMS, warm_cache=cache)
        warm = run_one(spec, PARAMS, warm_cache=cache)
        cold = run_one(spec, PARAMS)
        assert warm.meta["warm"]["restored"] is True
        assert strip_meta(warm) == strip_meta(cold)

    def test_flat_warm_state_serves_banked_run(self):
        """warm_group_key masks the mainmem config: functional warm-up is
        timing-free, so one warm-up serves both models bit-identically."""
        cache = WarmCache()
        run_one(RunSpec("CD", "sa", mix_id=1), PARAMS, warm_cache=cache)
        spec = RunSpec("DCA", "sa", mix_id=1, config=BANKED)
        warm = run_one(spec, PARAMS, warm_cache=cache)
        assert warm.meta["warm"]["restored"] is True
        assert strip_meta(warm) == strip_meta(run_one(spec, PARAMS))


class TestCommandFidelityMultiRankSubstrate:
    """System-level sanity for ranks>1 at command fidelity with tCS."""

    def test_tcs_on_stacked_part_slows_it_down(self):
        """Turning on a rank-to-rank penalty can only add time."""
        base_over = [("org.ranks_per_channel", 2)]
        base = scaled_config(8).with_overrides(base_over)
        slow = scaled_config(8).with_overrides(
            base_over + [("timings.tCS", 5_000)])

        def elapsed(cfg):
            sys_ = System(cfg, "CD", [profile("mcf")], seed=2,
                          footprint_scale=1 / 400)
            return sys_.run(1_000, 4_000, replay_accesses=500).elapsed_ps

        assert elapsed(slow) >= elapsed(base)
