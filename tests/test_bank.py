"""Bank state machine: row states and timing-constraint composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DRAMTimings
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT

from reference import Bank


@pytest.fixture
def bank():
    return Bank(DRAMTimings.stacked())


T = DRAMTimings.stacked()


class TestRowState:
    def test_initially_closed(self, bank):
        assert bank.row_state(5) == ROW_CLOSED

    def test_hit_after_commit(self, bank):
        cas = bank.earliest_cas(5, 0)
        bank.commit(5, cas, False, cas + T.tCAS + T.tBURST)
        assert bank.row_state(5) == ROW_HIT
        assert bank.row_state(6) == ROW_CONFLICT

    def test_closed_after_precharge(self, bank):
        cas = bank.earliest_cas(5, 0)
        bank.commit(5, cas, False, cas + T.tCAS + T.tBURST)
        bank.precharge(bank.ready_pre)
        assert bank.row_state(5) == ROW_CLOSED


class TestTiming:
    def test_closed_row_costs_trcd(self, bank):
        assert bank.earliest_cas(1, 1000) == 1000 + T.tRCD

    def test_open_row_hit_is_immediate(self, bank):
        cas = bank.earliest_cas(1, 0)
        bank.commit(1, cas, False, cas + T.tCAS + T.tBURST)
        later = bank.ready_cas + 100_000
        assert bank.earliest_cas(1, later) == later

    def test_conflict_costs_trp_plus_trcd(self, bank):
        cas = bank.earliest_cas(1, 0)
        bank.commit(1, cas, False, cas + T.tCAS + T.tBURST)
        t = bank.ready_pre + 50_000  # long after all windows
        assert bank.earliest_cas(2, t) == t + T.tRP + T.tRCD

    def test_tras_bounds_precharge(self, bank):
        """PRE may not issue earlier than tRAS after ACT."""
        cas = bank.earliest_cas(1, 0)  # ACT at 0, CAS at tRCD
        bank.commit(1, cas, False, cas + T.tCAS + T.tBURST)
        assert bank.ready_pre >= bank.act_time + T.tRAS

    def test_write_recovery_bounds_precharge(self, bank):
        cas = bank.earliest_cas(1, 0)
        burst_end = cas + T.tCAS + T.tBURST
        bank.commit(1, cas, True, burst_end)
        assert bank.ready_pre >= burst_end + T.tWR

    def test_read_to_precharge(self, bank):
        cas = bank.earliest_cas(1, 0)
        bank.commit(1, cas, False, cas + T.tCAS + T.tBURST)
        assert bank.ready_pre >= cas + T.tRTP

    def test_earliest_cas_is_pure(self, bank):
        before = (bank.open_row, bank.ready_cas, bank.ready_pre,
                  bank.ready_act)
        bank.earliest_cas(7, 12345)
        after = (bank.open_row, bank.ready_cas, bank.ready_pre,
                 bank.ready_act)
        assert before == after

    def test_reset(self, bank):
        cas = bank.earliest_cas(1, 0)
        bank.commit(1, cas, True, cas + T.tCAS + T.tBURST)
        bank.reset()
        assert bank.row_state(1) == ROW_CLOSED
        assert bank.ready_pre == 0


@given(st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_commit_sequence_invariants(ops):
    """Arbitrary access sequences keep bank bookkeeping consistent:

    * earliest_cas never proposes a CAS in the past;
    * ready_pre >= act_time + tRAS at all times (tRAS honored);
    * committing opens exactly the requested row.
    """
    bank = Bank(T)
    now = 0
    for row, is_write in ops:
        cas = bank.earliest_cas(row, now)
        assert cas >= now
        burst_end = cas + T.tCAS + T.tBURST
        bank.commit(row, cas, is_write, burst_end)
        assert bank.open_row == row
        assert bank.ready_pre >= bank.act_time + T.tRAS
        now = burst_end  # decisions advance with the bus


@given(st.integers(0, 100), st.integers(0, 10**7))
@settings(max_examples=50, deadline=None)
def test_earliest_cas_monotone_in_time(row, now):
    """Asking later never returns an earlier CAS."""
    bank = Bank(T)
    cas0 = bank.earliest_cas(row, now)
    cas1 = bank.earliest_cas(row, now + 1000)
    assert cas1 >= cas0
