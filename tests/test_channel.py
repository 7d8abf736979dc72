"""Channel: bus serialization, turnaround penalties, row-state stats,
and lockstep against the per-``Bank``-object reference model."""

import random

import pytest

from repro.config import DRAMOrganization, DRAMTimings, ns
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from repro.dram.channel import Channel
from repro.dram.command import CommandChannel

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

#: the counters one issue moves (every ChannelStats counter)
_ISSUE_COUNTERS = (
    "read_accesses", "write_accesses", "turnarounds",
    "read_row_hits", "read_row_closed", "read_row_conflicts",
    "write_row_hits", "write_row_closed", "write_row_conflicts",
    "bus_busy_ps", "rank_switches")

#: counter-name suffix of each row state
_ROW_CLASS = {ROW_HIT: "row_hits", ROW_CLOSED: "row_closed",
              ROW_CONFLICT: "row_conflicts"}


class _ObjectChannel:
    """Reference channel: one ``Bank`` object per bank + the shared bus rules.

    Implements exactly the subset of :class:`Channel` the lockstep drives
    (``issue`` and pure estimates) in the per-object layout the SoA
    columns replaced, so the channel's index arithmetic is checked
    against an independent statement of the same bank state machine and
    bus rule.
    It tallies the issue counters (row class per direction, turnarounds,
    bus busy time, rank switches) in :attr:`tally`, keyed like
    :class:`~repro.dram.stats.ChannelStats`.
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
        self.tally = dict.fromkeys(_ISSUE_COUNTERS, 0)

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
        direction = "write" if is_write else "read"
        tally = self.tally
        tally[f"{direction}_accesses"] += 1
        tally[f"{direction}_{_ROW_CLASS[b.row_state(row)]}"] += 1
        tally["bus_busy_ps"] += self.t.tBURST
        if self._last_rank >= 0 and rank != self._last_rank:
            tally["rank_switches"] += 1
        new_dir = _DIR_WRITE if is_write else _DIR_READ
        if self.bus_dir not in (_DIR_NONE, new_dir):
            tally["turnarounds"] += 1
        b.commit(row, start - self.t.tCAS, is_write, end)
        self._last_rank = rank
        self.bus_dir = new_dir
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

    ``now`` advances strictly, as the simulator's decision time does.
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
    counters = soa.stats.snapshot()
    assert {k: counters[k] for k in _ISSUE_COUNTERS} == obj.tally


def test_soa_object_lockstep_default_org():
    org = DRAMOrganization()
    stream = _make_stream(org, 4_000, seed=1234)
    _verify_lockstep(org, DRAMTimings.stacked(), stream)


def test_soa_object_lockstep_multirank():
    """Rank-crossing streams exercise the tCS bus-turnaround term."""
    org = DRAMOrganization(ranks_per_channel=4, banks_per_rank=8)
    stream = _make_stream(org, 4_000, seed=99)
    _verify_lockstep(org, DRAMTimings.stacked(), stream)


def test_command_channel_issue_counters():
    """Refresh on, two ranks: the direction, rank and bus counters match
    a tally of the issued stream, and each direction's row classes sum
    to its accesses (refresh closes move accesses between row classes,
    never out of them)."""
    org = DRAMOrganization(ranks_per_channel=2, banks_per_rank=8)
    timings = DRAMTimings.stacked()
    ch = CommandChannel(timings, org)
    rng = random.Random(7)
    stream = []
    now = 0
    for _ in range(4_000):
        stream.append((rng.randrange(2), rng.randrange(8), rng.randrange(32),
                       rng.random() < 0.4, now))
        # Mostly back-to-back decisions; now and then an idle gap, or
        # one past a refresh interval.
        r = rng.random()
        if r < 0.9:
            now += rng.randrange(0, 3 * timings.tBURST)
        elif r < 0.98:
            now += ns(800)
        else:
            now += timings.tREFI
    for access in stream:
        ch.issue(*access)
    writes = [w for _r, _b, _row, w, _now in stream]
    ranks = [r for r, _b, _row, _w, _now in stream]
    s = ch.stats
    assert s.write_accesses == sum(writes)
    assert s.read_accesses == len(stream) - sum(writes)
    assert s.turnarounds == sum(a != b for a, b in zip(writes, writes[1:]))
    assert s.rank_switches == sum(a != b for a, b in zip(ranks, ranks[1:]))
    assert s.bus_busy_ps == len(stream) * timings.tBURST
    for direction in ("read", "write"):
        classes = [getattr(s, f"{direction}_{c}") for c in _ROW_CLASS.values()]
        assert sum(classes) == getattr(s, f"{direction}_accesses")
        assert all(classes), f"{direction}: a row class never occurred"
    assert s.refreshes_issued > 0
