"""Channel: bus serialization, turnaround penalties, row-state stats,
and lockstep against the per-``Bank``-object reference model."""

import random

import pytest

from repro.config import DRAMOrganization, DRAMTimings
from repro.dram.channel import Channel

from reference import Bank, RowState, bank_states, row_state

T = DRAMTimings.stacked()


@pytest.fixture
def ch():
    return Channel(T, DRAMOrganization())


class TestBusSerialization:
    def test_bursts_never_overlap(self, ch):
        ends = []
        for i in range(10):
            start, end = ch.issue(0, i % 4, 0, False, 0)
            assert end - start == T.tBURST
            if ends:
                assert start >= ends[-1]
            ends.append(end)

    def test_completion_after_start(self, ch):
        start, end = ch.issue(0, 0, 0, False, 0)
        assert end > start >= 0


class TestTurnarounds:
    def test_no_turnaround_same_direction(self, ch):
        for _ in range(5):
            ch.issue(0, 0, 0, False, 0)
        assert ch.stats.turnarounds == 0

    def test_turnaround_counted_on_switch(self, ch):
        ch.issue(0, 0, 0, False, 0)
        ch.issue(0, 0, 0, True, 0)
        ch.issue(0, 0, 0, False, 0)
        assert ch.stats.turnarounds == 2

    def test_first_access_no_turnaround(self, ch):
        ch.issue(0, 0, 0, True, 0)
        assert ch.stats.turnarounds == 0

    def test_wtr_delay_applied(self, ch):
        """A read burst must wait tWTR after the last write burst."""
        _, wend = ch.issue(0, 0, 0, True, 0)
        rstart, _ = ch.issue(0, 0, 0, False, wend)
        assert rstart >= wend + T.tWTR

    def test_rtw_delay_applied(self, ch):
        _, rend = ch.issue(0, 0, 0, False, 0)
        wstart, _ = ch.issue(0, 0, 0, True, rend)
        assert wstart >= rend + T.tRTW

    def test_wtr_larger_than_rtw(self):
        # The asymmetry the paper leans on: W->R is the expensive switch.
        assert T.tWTR > T.tRTW


class TestRowStats:
    def test_closed_then_hit(self, ch):
        ch.issue(0, 0, 7, False, 0)
        ch.issue(0, 0, 7, False, 10_000_000)
        s = ch.stats
        assert s.read_row_closed == 1
        assert s.read_row_hits == 1
        assert s.read_row_conflicts == 0

    def test_conflict_counted(self, ch):
        ch.issue(0, 0, 7, False, 0)
        ch.issue(0, 0, 8, False, 10_000_000)
        assert ch.stats.read_row_conflicts == 1

    def test_write_stats_separate(self, ch):
        ch.issue(0, 0, 7, True, 0)
        ch.issue(0, 0, 7, True, 10_000_000)
        s = ch.stats
        assert s.write_row_closed == 1
        assert s.write_row_hits == 1
        assert s.read_accesses == 0
        assert s.write_accesses == 2

    def test_row_state_query(self, ch):
        assert row_state(ch, 0, 3, 9) == RowState.CLOSED
        ch.issue(0, 3, 9, False, 0)
        assert row_state(ch, 0, 3, 9) == RowState.HIT
        assert row_state(ch, 0, 3, 10) == RowState.CONFLICT

    def test_banks_independent(self, ch):
        ch.issue(0, 0, 7, False, 0)
        assert row_state(ch, 0, 1, 7) == RowState.CLOSED


class TestEstimate:
    def test_estimate_matches_issue(self, ch):
        est = ch.estimate_burst_start(0, 2, 5, False, 1000)
        start, _ = ch.issue(0, 2, 5, False, 1000)
        assert est == start

    def test_estimate_is_pure(self, ch):
        ch.estimate_burst_start(0, 2, 5, False, 1000)
        assert ch.stats.total_accesses == 0
        assert ch.bus_free == 0


class TestStatsReset:
    def test_reset_zeroes(self, ch):
        ch.issue(0, 0, 0, False, 0)
        ch.issue(0, 0, 0, True, 0)
        ch.reset_stats()
        assert ch.stats.total_accesses == 0
        assert ch.stats.turnarounds == 0

    def test_reset_keeps_bank_state(self, ch):
        ch.issue(0, 0, 7, False, 0)
        ch.reset_stats()
        assert row_state(ch, 0, 0, 7) == RowState.HIT


# --- SoA channel vs per-Bank-object reference ------------------------------

# Bus direction states (the reference model mirrors the channel's).
_DIR_NONE = 0
_DIR_READ = 1
_DIR_WRITE = 2


class _ObjectChannel:
    """Reference channel: one ``Bank`` object per bank + the shared bus rules.

    Implements exactly the subset of :class:`Channel` the lockstep drives
    (``issue`` and pure estimates) in the per-object layout the SoA
    columns replaced, so the channel's index arithmetic is checked
    against an independent statement of the same bank state machine.
    Statistics are omitted.
    """

    def __init__(self, timings, org):
        self.t = timings
        self.bpr = org.banks_per_rank
        nbanks = org.ranks_per_channel * org.banks_per_rank
        self.banks = [Bank(timings) for _ in range(nbanks)]
        self.bus_free = 0
        self.bus_dir = _DIR_NONE
        self._last_read_end = 0
        self._last_write_end = 0
        self._last_rank = -1

    def _bus_constrained_start(self, data_ready, is_write, rank):
        start = max(data_ready, self.bus_free)
        if is_write:
            if self.bus_dir == _DIR_READ:
                start = max(start, self._last_read_end + self.t.tRTW)
        elif self.bus_dir == _DIR_WRITE:
            start = max(start, self._last_write_end + self.t.tWTR)
        if (self.t.tCS and rank >= 0 and self._last_rank >= 0
                and rank != self._last_rank):
            start = max(start, self.bus_free + self.t.tCS)
        return start

    def estimate_burst_start(self, rank, bank, row, is_write, now):
        b = self.banks[rank * self.bpr + bank]
        cas = b.earliest_cas(row, now)
        return self._bus_constrained_start(cas + self.t.tCAS, is_write, rank)

    def issue(self, rank, bank, row, is_write, now):
        b = self.banks[rank * self.bpr + bank]
        cas = b.earliest_cas(row, now)
        start = self._bus_constrained_start(cas + self.t.tCAS, is_write, rank)
        end = start + self.t.tBURST
        b.commit(row, start - self.t.tCAS, is_write, end)
        self._last_rank = rank
        self.bus_dir = _DIR_WRITE if is_write else _DIR_READ
        self.bus_free = end
        if is_write:
            self._last_write_end = end
        else:
            self._last_read_end = end
        return start, end

    def capture_banks(self):
        return [b.capture() for b in self.banks]


def _make_stream(org, n, seed):
    """A shared (rank, bank, row, is_write, now) access stream.

    ``now`` advances strictly, so SoA estimate probes cannot be served
    from the generation memo — the lockstep checks the uncached math.
    """
    rng = random.Random(seed)
    stream = []
    now = 0
    for _ in range(n):
        rank = rng.randrange(org.ranks_per_channel)
        bank = rng.randrange(org.banks_per_rank)
        row = rng.randrange(32)
        is_write = rng.random() < 0.4
        now += rng.randrange(1, 4000)
        stream.append((rank, bank, row, is_write, now))
    return stream


def _verify_lockstep(org, timings, stream):
    """Drive both models through the stream; fail on any divergence."""
    soa = Channel(timings, org)
    obj = _ObjectChannel(timings, org)
    for i, (rank, bank, row, is_write, now) in enumerate(stream):
        est_soa = soa.estimate_burst_start(rank, bank, row, is_write, now)
        est_obj = obj.estimate_burst_start(rank, bank, row, is_write, now)
        assert est_soa == est_obj, f"estimate #{i} diverged"
        got_soa = soa.issue(rank, bank, row, is_write, now)
        got_obj = obj.issue(rank, bank, row, is_write, now)
        assert got_soa == got_obj, f"issue #{i} diverged"
    assert bank_states(soa) == obj.capture_banks()


def test_soa_object_lockstep_default_org():
    org = DRAMOrganization()
    stream = _make_stream(org, 4_000, seed=1234)
    _verify_lockstep(org, DRAMTimings.stacked(), stream)


def test_soa_object_lockstep_multirank():
    """Rank-crossing streams exercise the tCS bus-turnaround term."""
    org = DRAMOrganization(ranks_per_channel=4, banks_per_rank=8)
    stream = _make_stream(org, 4_000, seed=99)
    _verify_lockstep(org, DRAMTimings.stacked(), stream)
