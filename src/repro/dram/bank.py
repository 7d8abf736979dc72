"""Per-bank DRAM state machine with open-page policy.

A bank tracks its open row and the earliest times the three command classes
may issue, composed from the timing parameters:

* ``ACT``  — constrained by tRP after the preceding PRE;
* ``PRE``  — constrained by tRAS after ACT, tRTP after a read CAS, and
  tWR after the last write burst;
* ``CAS``  — constrained by tRCD after ACT.

The controller model is access-granular ("first-ready" composition): when
the scheduler commits to an access at decision time ``t``, the bank computes
the earliest legal CAS given its row state, opening/closing rows as needed,
and the channel then places the data burst on the bus.  This collapses the
command-level pipeline the way controller-design studies typically do; all
compared designs share the identical substrate, so relative results are
unaffected by the collapse.
"""

from __future__ import annotations

from enum import IntEnum

from repro.config import DRAMTimings

#: Row-state constants (kept as plain ints for speed in hot paths).
ROW_HIT = 0
ROW_CLOSED = 1
ROW_CONFLICT = 2

#: The complete value state of one bank, as captured/restored:
#: (open_row, act_time, ready_cas, ready_pre, ready_act).
BankState = tuple[int | None, int, int, int, int]


class RowState(IntEnum):
    """Public row-state names, derived from the hot-path int constants.

    This is the single definition (``repro.dram.channel`` re-exports it);
    schedulers and the bank keep comparing plain ints, public query
    surfaces (``Channel.row_state``) wrap them in this enum.
    """

    HIT = ROW_HIT
    CLOSED = ROW_CLOSED
    CONFLICT = ROW_CONFLICT


class BankView:
    """Object view of one bank's slice of a channel's struct-of-arrays state.

    The channel stores bank timing state as five parallel ``list[int]``
    columns (see :class:`repro.dram.channel.Channel`); this proxy gives
    the naive reference selectors, tests and foreign code the historical
    per-bank object surface (``open_row`` / ``row_state`` / readiness
    times) over those columns.  Reads and writes go straight through to
    the shared lists, so a view is never stale.  ``open_row`` keeps the
    ``None``-when-closed convention (the columns use ``-1``).
    """

    __slots__ = ("_open", "_act", "_cas", "_pre", "_ract", "_idx")

    def __init__(self, open_rows: list[int], act_times: list[int],
                 ready_cas: list[int], ready_pre: list[int],
                 ready_act: list[int], idx: int):
        self._open = open_rows
        self._act = act_times
        self._cas = ready_cas
        self._pre = ready_pre
        self._ract = ready_act
        self._idx = idx

    @property
    def open_row(self) -> int | None:
        row = self._open[self._idx]
        return None if row < 0 else row

    @open_row.setter
    def open_row(self, row: int | None) -> None:
        self._open[self._idx] = -1 if row is None else row

    @property
    def act_time(self) -> int:
        return self._act[self._idx]

    @act_time.setter
    def act_time(self, value: int) -> None:
        self._act[self._idx] = value

    @property
    def ready_cas(self) -> int:
        return self._cas[self._idx]

    @ready_cas.setter
    def ready_cas(self, value: int) -> None:
        self._cas[self._idx] = value

    @property
    def ready_pre(self) -> int:
        return self._pre[self._idx]

    @ready_pre.setter
    def ready_pre(self, value: int) -> None:
        self._pre[self._idx] = value

    @property
    def ready_act(self) -> int:
        return self._ract[self._idx]

    @ready_act.setter
    def ready_act(self, value: int) -> None:
        self._ract[self._idx] = value

    def row_state(self, row: int) -> int:
        """Classify an access to ``row``: ROW_HIT / ROW_CLOSED / ROW_CONFLICT."""
        orow = self._open[self._idx]
        if orow < 0:
            return ROW_CLOSED
        return ROW_HIT if orow == row else ROW_CONFLICT

    def capture(self) -> BankState:
        """Value tuple of the bank's slice (same layout as Bank.capture)."""
        i = self._idx
        orow = self._open[i]
        return (None if orow < 0 else orow, self._act[i], self._cas[i],
                self._pre[i], self._ract[i])


class Bank:
    """One DRAM bank: open row + command readiness times (picoseconds).

    The channels keep this state as struct-of-arrays columns instead;
    this object model is the independent reference they are checked
    against in lockstep (tests/test_channel.py).
    """

    __slots__ = ("t", "open_row", "act_time", "ready_cas", "ready_pre",
                 "ready_act")

    def __init__(self, timings: DRAMTimings):
        self.t = timings
        self.open_row: int | None = None
        self.act_time: int = 0
        self.ready_cas: int = 0   # earliest CAS to the open row
        self.ready_pre: int = 0   # earliest PRE
        self.ready_act: int = 0   # earliest ACT (tRP after last PRE)

    def row_state(self, row: int) -> int:
        """Classify an access to ``row``: ROW_HIT / ROW_CLOSED / ROW_CONFLICT."""
        if self.open_row is None:
            return ROW_CLOSED
        return ROW_HIT if self.open_row == row else ROW_CONFLICT

    def earliest_cas(self, row: int, now: int) -> int:
        """Earliest legal CAS time for ``row`` if committed at ``now``.

        Pure query — does not mutate state.
        """
        state = self.row_state(row)
        if state == ROW_HIT:
            return max(now, self.ready_cas)
        if state == ROW_CLOSED:
            act = max(now, self.ready_act)
            return act + self.t.tRCD
        pre = max(now, self.ready_pre)
        act = pre + self.t.tRP
        return act + self.t.tRCD

    def commit(self, row: int, cas_time: int, is_write: bool,
               burst_end: int) -> None:
        """Commit an access whose CAS lands at ``cas_time``.

        The caller (channel) has already folded bus constraints into
        ``cas_time``; this method updates row state and readiness times.
        """
        state = self.row_state(row)
        if state != ROW_HIT:
            # We activated (and possibly precharged). The ACT time is bound
            # by cas_time - tRCD; reconstruct it for tRAS accounting.
            act = cas_time - self.t.tRCD
            self.act_time = act
            self.open_row = row
            self.ready_cas = act + self.t.tRCD
        # CAS-to-CAS on the same row: back-to-back bursts are gated by the
        # channel bus, not the bank, in this model.
        if is_write:
            pre_ok = max(self.act_time + self.t.tRAS, burst_end + self.t.tWR)
        else:
            pre_ok = max(self.act_time + self.t.tRAS, cas_time + self.t.tRTP)
        if pre_ok > self.ready_pre:
            self.ready_pre = pre_ok
        # Next ACT can only follow the next PRE; maintained when PRE happens
        # implicitly on a conflict. Approximate by deriving from ready_pre.
        self.ready_act = self.ready_pre + self.t.tRP

    def precharge(self, now: int) -> None:
        """Explicit PRE (used by tests and close-page experiments)."""
        pre = max(now, self.ready_pre)
        self.open_row = None
        self.ready_act = pre + self.t.tRP

    def reset(self) -> None:
        """Return to the all-banks-closed power-up state at time 0."""
        self.open_row = None
        self.act_time = 0
        self.ready_cas = 0
        self.ready_pre = 0
        self.ready_act = 0

    # -- state capture (substrate protocol support) ---------------------------

    def capture(self) -> BankState:
        """Value tuple of the complete bank state (timings excluded)."""
        return (self.open_row, self.act_time, self.ready_cas,
                self.ready_pre, self.ready_act)

    def restore(self, state: BankState) -> None:
        """Adopt a :meth:`capture` tuple."""
        (self.open_row, self.act_time, self.ready_cas,
         self.ready_pre, self.ready_act) = state
