"""BLISS and FR-FCFS candidate selection + RRPC counters."""

import pytest

from repro.config import BLISSConfig, DRAMOrganization, DRAMTimings
from repro.core.access import Access, AccessRole, CacheRequest, RequestType
from repro.core.bliss import BLISSScheduler
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.queues import AccessQueue
from repro.core.rrpc import RRPCTable
from repro.dram.channel import Channel

from reference import bliss_pick, next_seq


def mk_access(core=0, bank=0, row=0, role=AccessRole.TAG_READ,
              rtype=RequestType.READ):
    req = CacheRequest(rtype, 0, core)
    # coordinates: (channel, rank, bank, row, col, global_bank)
    return Access(role, req, (0, 0, bank, row, 0, bank), seq=next_seq())


def pick(sched, candidates, channel, now):
    """``sched``'s choice among ``candidates`` through the bucketed
    selection loop, checked against the per-candidate reference."""
    q = AccessQueue(max(len(candidates), 1))
    for a in candidates:
        q.push(a)
    got = sched.pick_banked(q.classes, channel, now)
    assert got is bliss_pick(sched, candidates, channel, now)
    return got


@pytest.fixture
def channel():
    return Channel(DRAMTimings.stacked(), DRAMOrganization())


class TestBLISS:
    def test_empty_candidates(self, channel):
        s = BLISSScheduler(BLISSConfig(), 4)
        assert pick(s, [], channel, 0) is None

    def test_oldest_first_when_equal(self, channel):
        s = BLISSScheduler(BLISSConfig(), 4)
        a, b = mk_access(core=0), mk_access(core=1)
        assert pick(s, [b, a], channel, 0) is a if a.seq < b.seq else b

    def test_row_hit_first(self, channel):
        s = BLISSScheduler(BLISSConfig(), 4)
        channel.issue(0, 2, 9, False, 0)  # open row 9 in bank 2
        older_miss = mk_access(bank=3, row=1)
        newer_hit = mk_access(bank=2, row=9)
        assert pick(s, [older_miss, newer_hit], channel, 0) is newer_hit

    def test_blacklist_after_streak(self, channel):
        s = BLISSScheduler(BLISSConfig(blacklist_threshold=4), 4)
        for _ in range(4):
            s.on_served(2)
        assert s.blacklist[2]
        assert s.blacklist_events == 1

    def test_streak_broken_by_other_core(self):
        s = BLISSScheduler(BLISSConfig(blacklist_threshold=4), 4)
        for _ in range(3):
            s.on_served(2)
        s.on_served(1)
        for _ in range(3):
            s.on_served(2)
        assert not s.blacklist[2]

    def test_blacklisted_deprioritized(self, channel):
        s = BLISSScheduler(BLISSConfig(), 4)
        for _ in range(4):
            s.on_served(0)
        bl_access = mk_access(core=0)     # older but blacklisted
        ok_access = mk_access(core=1)
        assert pick(s, [bl_access, ok_access], channel, 0) is ok_access

    def test_clearing_interval(self, channel):
        cfg = BLISSConfig(clearing_interval_ps=1000)
        s = BLISSScheduler(cfg, 4)
        for _ in range(4):
            s.on_served(0)
        assert s.blacklist[0]
        assert s.pick_banked((), channel, 999) is None
        assert s.blacklist[0]
        s.pick_banked((), channel, 2000)    # a pick clears, then scans
        assert not s.blacklist[0]

    def test_blacklist_beats_row_hit(self, channel):
        """Application fairness outranks row locality in BLISS."""
        s = BLISSScheduler(BLISSConfig(), 4)
        for _ in range(4):
            s.on_served(0)
        channel.issue(0, 2, 9, False, 0)
        bl_hit = mk_access(core=0, bank=2, row=9)
        ok_miss = mk_access(core=1, bank=3, row=1)
        assert pick(s, [bl_hit, ok_miss], channel, 0) is ok_miss


class TestFRFCFS:
    def test_row_hit_first(self, channel):
        s = FRFCFSScheduler(BLISSConfig(), 4)
        channel.issue(0, 2, 9, False, 0)
        older_miss = mk_access(bank=3, row=1)
        newer_hit = mk_access(bank=2, row=9)
        assert pick(s, [older_miss, newer_hit], channel, 0) is newer_hit

    def test_oldest_otherwise(self, channel):
        s = FRFCFSScheduler(BLISSConfig(), 4)
        a = mk_access(bank=3, row=1)
        b = mk_access(bank=4, row=1)
        assert pick(s, [b, a], channel, 0) in (a, b)
        assert pick(s, [b, a], channel, 0).seq == min(a.seq, b.seq)

    def test_interface_parity(self, channel):
        s = FRFCFSScheduler(BLISSConfig(), 4)
        assert s.pick_banked((), channel, 0) is None
        s.on_served(1)
        assert s.served == 1

    def test_never_blacklists(self, channel):
        """FR-FCFS is BLISS with an empty blacklist: a streak far past
        BLISS's threshold is only counted."""
        s = FRFCFSScheduler(BLISSConfig(blacklist_threshold=4), 4)
        for _ in range(100):
            s.on_served(2)
        assert s.served == 100
        assert s.blacklist == [False] * 4
        assert s.blacklist_events == 0
        channel.issue(0, 2, 9, False, 0)
        streak_hit = mk_access(core=2, bank=2, row=9)
        other_miss = mk_access(core=1, bank=3, row=1)
        assert pick(s, [streak_hit, other_miss], channel, 0) is streak_hit


class TestRRPC:
    def test_initial_zero(self):
        t = RRPCTable(64)
        assert t.snapshot() == [0] * 64

    def test_set_to_max_on_pr(self):
        t = RRPCTable(64)
        t.on_priority_read(5)
        assert t.value(5) == 7

    def test_decrement_on_other_prs(self):
        t = RRPCTable(64)
        t.on_priority_read(5)
        for _ in range(3):
            t.on_priority_read(9)
        assert t.value(5) == 4
        assert t.value(9) == 7

    def test_floor_at_zero(self):
        t = RRPCTable(64)
        t.on_priority_read(5)
        for _ in range(20):
            t.on_priority_read(9)
        assert t.value(5) == 0

    def test_matches_naive_model(self):
        """O(1) lazy formulation == literal decrement-all semantics."""
        import random
        rng = random.Random(42)
        t = RRPCTable(16)
        naive = [0] * 16
        for _ in range(500):
            b = rng.randrange(16)
            t.on_priority_read(b)
            naive = [max(0, v - 1) for v in naive]
            naive[b] = 7
            assert t.snapshot() == naive

    def test_allows_flush_ff4(self):
        """Paper FF-4: flush allowed when the counter is below 4."""
        t = RRPCTable(8)
        t.on_priority_read(0)
        assert not t.allows_flush(0, 4)   # counter 7
        for _ in range(3):
            t.on_priority_read(1)
        assert not t.allows_flush(0, 4)   # counter 4
        t.on_priority_read(1)
        assert t.allows_flush(0, 4)       # counter 3

    def test_len(self):
        assert len(RRPCTable(64)) == 64
