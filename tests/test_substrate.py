"""Substrate protocol + timing invariants for both fidelity models.

Property-style pins over random issue streams:

* bursts never overlap on the shared data bus and ``bus_free`` is
  monotone (both fidelities, and the command model with refresh off);
* CAS spacing respects the tRCD / tRP+tRCD composition on closed /
  conflicting rows;
* the command model admits at most four ACTs per rank inside any tFAW
  window and spaces same-rank ACTs by at least tRRD;
* ``estimate_burst_start`` (``issue`` on a copy) always equals the start
  ``issue`` then commits;
* refresh fires on schedule, blacks the rank out for tRFC, and is
  accounted (issued / postponed / ACT stalls);
* estimates are pure: interleaving them with issues never changes any
  committed time or counter;
* the substrate config rides the sweep axis machinery end to end with
  the new counters visible in results.json;
* with refresh off and tRRD = tFAW = 0, a full run at command fidelity
  reports exactly the burst model's counters, and 0 in its own.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config import (
    DRAMOrganization,
    DRAMTimings,
    SubstrateConfig,
    ns,
)
from repro.dram.bank import ROW_HIT
from repro.dram.channel import Channel
from repro.dram.command import FAW_DEPTH, CommandChannel
from repro.dram.stats import ChannelStats, CommandChannelStats
from repro.dram.substrate import Substrate, make_channel

from reference import RowState, row_state

T = DRAMTimings.stacked()
ORG = DRAMOrganization(ranks_per_channel=2, banks_per_rank=8)

#: (substrate, timings) points; both models keep rows open, and the
#: command model's refresh is off with tREFI = 0.
FIDELITY_POINTS = [
    pytest.param(SubstrateConfig(), T, id="burst-open"),
    pytest.param(SubstrateConfig(fidelity="command"), T, id="command-open"),
    pytest.param(SubstrateConfig(fidelity="command"),
                 replace(T, tREFI=0, tRFC=0), id="command-open-norefresh"),
]


def random_stream(rng: random.Random, n: int):
    """(rank, bank, row, is_write, now) with a drifting decision clock."""
    now = 0
    for _ in range(n):
        yield (rng.randrange(ORG.ranks_per_channel),
               rng.randrange(ORG.banks_per_rank),
               rng.randrange(16), rng.random() < 0.3, now)
        # Mostly same-time batches (the controller's issue window), with
        # occasional jumps past refresh intervals.
        r = rng.random()
        if r < 0.6:
            pass
        elif r < 0.9:
            now += rng.randrange(1, 3 * T.tBURST)
        else:
            now += rng.randrange(T.tREFI // 2, 2 * T.tREFI)


class TestTimingsValidation:
    def test_stock_timings_valid(self):
        DRAMTimings.stacked()
        DRAMTimings.ddr3_1600()

    @pytest.mark.parametrize("field", ["tRCD", "tCAS", "tRP", "tRAS",
                                       "tWTR", "tRTP", "tRTW", "tWR",
                                       "tBURST"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_core_timings_must_be_positive(self, field, bad):
        with pytest.raises(ValueError, match=field):
            replace(DRAMTimings.stacked(), **{field: bad})

    @pytest.mark.parametrize("field", ["tRRD", "tFAW", "tREFI", "tRFC"])
    def test_rank_timings_reject_negative(self, field):
        with pytest.raises(ValueError, match=field):
            replace(DRAMTimings.stacked(), **{field: -1})

    def test_rank_timings_zero_disables(self):
        t = replace(DRAMTimings.stacked(), tRRD=0, tFAW=0, tREFI=0, tRFC=0)
        assert t.tFAW == 0

    def test_faw_shorter_than_rrd_rejected(self):
        with pytest.raises(ValueError, match="tFAW"):
            replace(DRAMTimings.stacked(), tRRD=ns(10), tFAW=ns(5))

    def test_rfc_swallowing_refi_rejected(self):
        with pytest.raises(ValueError, match="tRFC"):
            replace(DRAMTimings.stacked(), tREFI=ns(100), tRFC=ns(100))

    def test_refi_without_rfc_rejected(self):
        with pytest.raises(ValueError, match="tRFC"):
            replace(DRAMTimings.stacked(), tRFC=0)


class TestSubstrateConfigValidation:
    def test_defaults(self):
        assert SubstrateConfig().fidelity == "burst"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            SubstrateConfig(fidelity="cycle")

    def test_factory_rejects_unknown_fidelity(self):
        # Bypass SubstrateConfig's own validation to pin the factory's.
        class Fake:
            fidelity = "cycle"
        with pytest.raises(ValueError, match="fidelity"):
            make_channel(T, ORG, Fake())


class TestProtocol:
    @pytest.mark.parametrize("sub,t", FIDELITY_POINTS)
    def test_models_satisfy_protocol(self, sub, t):
        assert isinstance(make_channel(t, ORG, sub), Substrate)

    def test_factory_picks_model_and_stats(self):
        burst = make_channel(T, ORG)
        cmd = make_channel(T, ORG, SubstrateConfig(fidelity="command"))
        assert type(burst) is Channel
        assert type(cmd) is CommandChannel
        # Burst keeps the plain counter group: its metric snapshots (and
        # the golden pins over them) must not grow command-only keys.
        assert type(burst.stats) is ChannelStats
        assert type(cmd.stats) is CommandChannelStats
        assert "refreshes_issued" not in burst.stats.snapshot()
        assert "refreshes_issued" in cmd.stats.snapshot()

    def test_row_state_enum_single_definition(self):
        import repro.dram
        from repro.dram import bank as bmod, channel as chmod
        # The test-side enum is the only one: src keeps plain ints.
        for mod in (repro.dram, bmod, chmod):
            assert not hasattr(mod, "RowState")
        assert [int(s) for s in RowState] == [
            bmod.ROW_HIT, bmod.ROW_CLOSED, bmod.ROW_CONFLICT] == [0, 1, 2]
        assert RowState.HIT == ROW_HIT


class TestBusInvariants:
    @pytest.mark.parametrize("sub,t", FIDELITY_POINTS)
    def test_bursts_never_overlap_and_bus_monotone(self, sub, t):
        rng = random.Random(0xB05)
        ch = make_channel(t, ORG, sub)
        prev_end = 0
        prev_bus_free = 0
        for rank, bank, row, is_write, now in random_stream(rng, 400):
            start, end = ch.issue(rank, bank, row, is_write, now)
            assert end - start == T.tBURST
            assert start >= now
            assert start >= prev_end, "bursts overlapped on the bus"
            assert ch.bus_free >= prev_bus_free, "bus_free went backwards"
            prev_end, prev_bus_free = end, ch.bus_free

    @pytest.mark.parametrize("sub,t", FIDELITY_POINTS)
    def test_estimate_matches_issue(self, sub, t):
        rng = random.Random(0xE57)
        ch = make_channel(t, ORG, sub)
        for rank, bank, row, is_write, now in random_stream(rng, 300):
            est = ch.estimate_burst_start(rank, bank, row, is_write, now)
            start, _ = ch.issue(rank, bank, row, is_write, now)
            assert est == start


class TestCasComposition:
    @pytest.mark.parametrize("sub", [SubstrateConfig(),
                                     SubstrateConfig(fidelity="command")],
                             ids=["burst", "command"])
    def test_closed_row_pays_trcd(self, sub):
        ch = make_channel(T, ORG, sub)
        start, _ = ch.issue(0, 0, 5, False, 0)
        assert start >= T.tRCD + T.tCAS

    @pytest.mark.parametrize("sub", [SubstrateConfig(),
                                     SubstrateConfig(fidelity="command")],
                             ids=["burst", "command"])
    def test_conflict_pays_trp_trcd(self, sub):
        ch = make_channel(T, ORG, sub)
        _, end = ch.issue(0, 0, 5, False, 0)
        # Decide long after tRAS/tRTP windows so only tRP+tRCD remain.
        now = end + T.tRAS + T.tWR
        start, _ = ch.issue(0, 0, 6, False, now)
        assert start >= now + T.tRP + T.tRCD + T.tCAS

    @pytest.mark.parametrize("sub", [SubstrateConfig(),
                                     SubstrateConfig(fidelity="command")],
                             ids=["burst", "command"])
    def test_row_hit_skips_activation(self, sub):
        ch = make_channel(T, ORG, sub)
        _, end = ch.issue(0, 0, 5, False, 0)
        now = end
        start, _ = ch.issue(0, 0, 5, False, now)
        assert start < now + T.tRCD + T.tCAS


class TestRankConstraints:
    def _act_times(self, stream_len=600, seed=0xFA3):
        """Issue a random stream; return per-rank effective ACT times."""
        rng = random.Random(seed)
        ch = make_channel(T, ORG, SubstrateConfig(fidelity="command"))
        acts: dict[int, list[int]] = {r: [] for r in
                                      range(ORG.ranks_per_channel)}
        for rank, bank, row, is_write, now in random_stream(rng, stream_len):
            pre_state = row_state(ch, rank, bank, row)
            start, _ = ch.issue(rank, bank, row, is_write, now)
            if pre_state != ROW_HIT:
                acts[rank].append(start - T.tCAS - T.tRCD)
        return acts

    def test_at_most_four_acts_per_faw_window(self):
        acts = self._act_times()
        assert any(len(v) > FAW_DEPTH for v in acts.values()), \
            "stream too small to exercise the window"
        for rank, times in acts.items():
            assert times == sorted(times)
            for i in range(FAW_DEPTH, len(times)):
                assert times[i] - times[i - FAW_DEPTH] >= T.tFAW, (
                    f"rank {rank}: five ACTs inside one tFAW window "
                    f"at index {i}")

    def test_trrd_spacing(self):
        for rank, times in self._act_times(seed=0x44D).items():
            for a, b in zip(times, times[1:]):
                assert b - a >= T.tRRD, f"rank {rank}: ACTs {a},{b}"

    def test_ranks_are_independent(self):
        """Saturating rank 0's ACT window must not delay rank 1."""
        ch = make_channel(T, ORG, SubstrateConfig(fidelity="command"))
        for b in range(FAW_DEPTH):
            ch.issue(0, b, 3, False, 0)
        assert ch.stats.rrd_stalls + ch.stats.faw_stalls >= FAW_DEPTH - 1
        est_rank1 = ch.estimate_burst_start(1, 0, 3, False, 0)
        # Rank 1's first ACT is bus-bound only, never window-bound.
        assert est_rank1 <= ch.bus_free + T.tBURST

    def test_disabled_by_zero_timings(self):
        t = replace(T, tRRD=0, tFAW=0)
        ch = CommandChannel(t, ORG)
        for b in range(8):
            ch.issue(0, b, 3, False, 0)
        assert ch.stats.rrd_stalls == 0
        assert ch.stats.faw_stalls == 0


class TestRefresh:
    def make(self, **tweaks):
        return CommandChannel(replace(T, **tweaks), ORG)

    def test_refresh_count_tracks_elapsed_time(self):
        ch = self.make()
        ch.issue(0, 0, 1, False, 0)
        k = 9
        ch.issue(0, 0, 1, False, k * T.tREFI + T.tREFI // 2)
        # Rank 0 owed k refreshes over the idle gap (give or take the one
        # whose due time the second access straddles).
        assert k - 1 <= ch.stats.refreshes_issued <= k + 1

    def test_refresh_closes_rows(self):
        ch = self.make()
        ch.issue(0, 0, 7, False, 0)
        assert ch.open_rows[0] == 7
        ch.issue(0, 1, 3, False, 2 * T.tREFI)   # sync via a sibling bank
        assert ch.open_rows[0] == -1, "refresh must precharge"

    def test_act_after_refresh_waits_for_blackout(self):
        ch = self.make()
        ch.issue(0, 0, 1, False, 0)
        now = T.tREFI + 1          # just past the due time
        start, _ = ch.issue(0, 2, 5, False, now)
        assert start >= T.tREFI + T.tRFC + T.tRCD + T.tCAS
        assert ch.stats.refresh_stalls == 1

    def test_postponed_refresh_accounted(self):
        ch = self.make()
        # Park an access just before the due time: its tRAS/tRTP window
        # makes the rank un-prechargeable at the due instant.
        ch.issue(0, 0, 1, False, T.tREFI - T.tBURST)
        ch.issue(0, 1, 2, False, T.tREFI + T.tRAS)
        assert ch.stats.refreshes_issued == 1
        assert ch.stats.refreshes_postponed == 1
        assert ch.stats.refresh_postpone_rate == 1.0

    def test_refresh_off_by_zero_trefi(self):
        ch = self.make(tREFI=0, tRFC=0)
        ch.issue(0, 0, 1, False, 0)
        ch.issue(0, 0, 1, False, 10**9)
        assert ch.stats.refreshes_issued == 0
        # Open page: with nothing to refresh, the row survives the gap.
        assert ch.stats.read_row_hits == 1


class TestDeterminism:
    def test_estimates_never_perturb_outcomes(self):
        """The committed schedule and every counter must be identical
        whether or not estimates were interleaved (else probing would
        bend results).  A short tREFI makes a refresh fall due every few
        issues, so the estimates keep running the lazy refresh sync —
        on their copy of the channel, never on the channel itself."""
        rng = random.Random(0xDE7)
        stream = list(random_stream(rng, 300))
        t = replace(T, tREFI=ns(40), tRFC=ns(15))

        plain = CommandChannel(t, ORG)
        probed = CommandChannel(t, ORG)
        outs_plain, outs_probed = [], []
        for rank, bank, row, is_write, now in stream:
            outs_plain.append(plain.issue(rank, bank, row, is_write, now))
            # Probe several unrelated banks first, then issue.
            for b in range(ORG.banks_per_rank):
                probed.estimate_burst_start(rank ^ 1, b, row, not is_write,
                                            now)
                probed.estimate_burst_start(rank, b, row, is_write, now)
            outs_probed.append(probed.issue(rank, bank, row, is_write, now))
        assert outs_plain == outs_probed
        assert plain.stats == probed.stats


class TestSweepIntegration:
    def test_fidelity_axis_compiles(self):
        from repro.scenarios.spec import SweepSpec
        sweep = SweepSpec(name="sub", axes={
            "substrate.fidelity": ["burst", "command"]},
            base={"mix_id": 1})
        points = sweep.compile()
        assert len(points) == 2
        assert [dict(p.spec.config)["substrate.fidelity"] for p in points] \
            == ["burst", "command"]

    def test_bad_fidelity_axis_is_a_spec_error(self):
        from repro.scenarios.spec import SweepSpec
        with pytest.raises(ValueError, match="fidelity"):
            SweepSpec(name="sub", axes={
                "substrate.fidelity": ["burst", "cycle"]},
                base={"mix_id": 1})

    def test_sweep_end_to_end_surfaces_command_counters(self, tmp_path):
        """`dca-repro sweep --axis substrate.fidelity=burst,command` runs
        through the full engine, and the command point's results.json
        metrics snapshot carries the refresh/tFAW counters."""
        import json
        from repro.experiments.common import SimParams
        from repro.scenarios.executor import run_sweep
        from repro.scenarios.spec import SweepSpec

        sweep = SweepSpec(
            name="subfid",
            axes={"substrate.fidelity": ["burst", "command"]},
            # Short tREFI so refresh fires at this tiny scale.
            base={"mix_id": 1, "timings.tREFI": 400_000})
        params = SimParams(warmup_insts=2_000, measure_insts=6_000,
                           replay_accesses=1_000)
        outcome = run_sweep(sweep, params, jobs=1, out_dir=tmp_path,
                            cache_dir=tmp_path / "cache")
        assert not outcome.failures
        data = json.loads((tmp_path / "subfid" / "results.json").read_text())
        by_fid = {p["axes"]["substrate.fidelity"]: p["result"]
                  for p in data["points"]}
        burst_sub = by_fid["burst"]["metrics"]["substrate_total"]
        cmd_sub = by_fid["command"]["metrics"]["substrate_total"]
        assert "refreshes_issued" not in burst_sub
        assert cmd_sub["refreshes_issued"] > 0
        assert cmd_sub["rrd_stalls"] + cmd_sub["faw_stalls"] > 0
        # The command model's constraints cost simulated time.
        assert (by_fid["command"]["elapsed_ps"]
                != by_fid["burst"]["elapsed_ps"])


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Flatten a nested result dict into ``{"a.b.c": value}``."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


@pytest.mark.parametrize("design", ["CD", "ROD", "DCA"])
def test_command_model_without_rank_mechanisms_equals_burst(design):
    """With refresh off and tRRD = tFAW = 0 nothing the burst model lacks
    is left in the command model: every counter both report is equal
    (IPCs, controller, caches, per-channel substrate), and every counter
    only the command model reports reads 0."""
    from repro.experiments.common import RunSpec, SimParams, run_one
    params = SimParams(warmup_insts=2_000, measure_insts=6_000,
                       replay_accesses=1_000)
    command = (("substrate.fidelity", "command"), ("timings.tREFI", 0),
               ("timings.tRRD", 0), ("timings.tFAW", 0))

    def leaves(config):
        result = run_one(RunSpec(design, "sa", mix_id=1, config=config),
                         params).to_cache_dict()
        del result["meta"]                  # names the config override
        return _leaves(result)

    burst, cmd = leaves(()), leaves(command)
    assert burst.keys() <= cmd.keys()
    assert {k: cmd[k] for k in burst} == burst
    only = {k: cmd[k] for k in cmd.keys() - burst.keys()}
    assert only and not any(only.values()), only
    assert any(k.endswith("refreshes_issued") for k in only)


def test_command_channel_rejects_plain_stats():
    from repro.dram.stats import ChannelStats
    with pytest.raises(TypeError, match="CommandChannelStats"):
        make_channel(T, ORG, SubstrateConfig(fidelity="command"),
                     stats=ChannelStats())
