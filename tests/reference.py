"""Independent reference models for the lockstep tests.

The simulator keeps one implementation per mechanism: struct-of-arrays
bank columns in the channels, and one bucketed selection loop
(``BLISSScheduler.pick_banked``, which FR-FCFS inherits).  The models
here restate the same behaviour the plain way, so the tests can drive
both side by side and fail on the first divergence:

* :class:`Bank` — one DRAM bank as an object (open row + readiness
  times), the state machine the channel's columns must match
  (``test_channel.py``, ``test_bank.py``);
* :func:`bliss_pick` — the scheduler's priority order evaluated per
  candidate over a flat list (``test_fastpath.py``,
  ``test_schedulers.py``);
* :func:`ofs_naive_candidates` — DCA's OFS filter (paper §IV-C) as a
  per-access scan (``test_fastpath.py``);
* :func:`priority_reads` / :func:`low_priority_reads` — a queue's PR /
  LR class as a flat list, through queue iteration
  (``test_queues.py``, ``test_controllers.py``);
* :class:`NaiveSimulator` — the event engine's contract as an unordered
  list scanned for the least ``(time, seq)`` on every pop
  (``test_engine.py``).

It also holds the read-only queries only tests need: :class:`RowState` /
:func:`row_state` and :func:`bank_states` over a channel's SoA columns,
:func:`contents_signature` over a DRAM-cache array, and :func:`next_seq`
for hand-built accesses.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.cache.dramcache import DRAMCacheArray
from repro.config import DRAMTimings
from repro.core.access import Access, Priority
from repro.core.bliss import BLISSScheduler
from repro.core.rrpc import RRPCTable
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from repro.dram.channel import Channel

#: The complete value state of one bank:
#: (open_row, act_time, ready_cas, ready_pre, ready_act).
BankState = tuple[int | None, int, int, int, int]


class RowState(IntEnum):
    """Names for the channels' hot-path ``ROW_*`` int constants."""

    HIT = ROW_HIT
    CLOSED = ROW_CLOSED
    CONFLICT = ROW_CONFLICT


def row_state(channel: Channel, rank: int, bank: int, row: int) -> RowState:
    """Row-buffer state an access to (rank, bank, row) would see now."""
    orow = channel.open_rows[rank * channel.org.banks_per_rank + bank]
    if orow < 0:
        return RowState.CLOSED
    return RowState.HIT if orow == row else RowState.CONFLICT


def bank_states(channel: Channel) -> list[BankState]:
    """Every bank of ``channel`` as a :meth:`Bank.capture` tuple, read
    from its SoA columns (``open_row`` is None when closed)."""
    return [(orow if orow >= 0 else None, act, cas, pre, ract)
            for orow, act, cas, pre, ract in zip(
                channel.open_rows, channel.act_times, channel.ready_cas,
                channel.ready_pre, channel.ready_act)]


def contents_signature(array: DRAMCacheArray) -> tuple[Any, ...]:
    """Value-only digest of a DRAM-cache array's functional contents.

    Deterministically ordered and identity-free, so digests of
    independent arrays compare equal iff their contents match.  Lists
    every set that was ever written (any nonzero stamp), whether or not
    the columns behind it were allocated lazily.
    """
    if not array._tags:
        return (array.organization, array._clock, [])
    ways = array._ways
    stamps = np.frombuffer(array._stamp, dtype=np.int64).reshape(-1, ways)
    written = np.flatnonzero(stamps.any(axis=1)).tolist()
    tags, dirty, stamp = array._tags, array._dirty, array._stamp
    return (array.organization, array._clock,
            [(s, tuple(tags[s * ways:s * ways + ways]),
              tuple(map(bool, dirty[s * ways:s * ways + ways])),
              tuple(stamp[s * ways:s * ways + ways]))
             for s in written])


_access_seqs = itertools.count(1)


def next_seq() -> int:
    """A fresh age tiebreak for a hand-built :class:`Access` (the
    simulator draws them from its per-system Translator counter)."""
    return next(_access_seqs)


class Bank:
    """One DRAM bank: open row + command readiness times (picoseconds)."""

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
        """Explicit PRE."""
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

    def capture(self) -> BankState:
        """Value tuple of the complete bank state (timings excluded)."""
        return (self.open_row, self.act_time, self.ready_cas,
                self.ready_pre, self.ready_act)


def bliss_pick(sched: BLISSScheduler, candidates: Iterable[Access],
               channel: Channel, now: int) -> Optional[Access]:
    """The access ``sched`` should choose among ``candidates``.

    Priority: non-blacklisted > row-hit > age (global ``seq``); None when
    the candidate set is empty.  Classifies every candidate's row state
    individually.  Applies the blacklist clearing first, through an
    empty ``pick_banked``, so both see the same blacklist.
    """
    sched.pick_banked((), channel, now)
    best: Optional[Access] = None
    best_key: tuple[int, int, int] | None = None
    bl = sched.blacklist
    for a in candidates:
        row_hit = row_state(channel, a.rank, a.bank, a.row) == ROW_HIT
        key = (1 if bl[a.core_id] else 0, 0 if row_hit else 1, a.seq)
        if best_key is None or key < best_key:
            best, best_key = a, key
    return best


def ofs_naive_candidates(entries: Iterable[Access], channel: Channel,
                         rrpc: RRPCTable,
                         flushing_factor: int) -> list[Access]:
    """LRs passing the OFS criteria (§IV-C), one access at a time.

    A row hit or a closed row is safe; a conflicting LR passes only when
    its bank's RRPC counter has decayed below the flushing factor.
    """
    out = []
    for a in entries:
        if a.priority != Priority.LR:
            continue
        if row_state(channel, a.rank, a.bank, a.row) != ROW_CONFLICT:
            out.append(a)          # row hit or closed row: safe
        elif rrpc.allows_flush(a.global_bank, flushing_factor):
            out.append(a)          # conflicting, but the bank is cold
    return out


def priority_reads(queue: Iterable[Access]) -> list[Access]:
    """The PR-class (demand-read) accesses of ``queue``, oldest first."""
    return [a for a in queue if a.priority == Priority.PR]


def low_priority_reads(queue: Iterable[Access]) -> list[Access]:
    """The LR-class (writeback/refill tag-read) accesses of ``queue``,
    oldest first."""
    return [a for a in queue if a.priority == Priority.LR]


class NaiveSimulator:
    """``repro.sim.engine.Simulator``'s contract without a heap.

    Pending events sit in an unordered list; each dispatch removes the
    one with the least ``(time, seq)``.  ``run(until=, max_events=)``,
    ``drain()``, ``stop()`` and ``asap()`` follow the engine's documented
    semantics,
    including the pinned quirk that an exhausted budget still advances
    the clock to ``until``.
    """

    def __init__(self) -> None:
        self.now = 0
        self.events_run = 0
        self._events: list[tuple[int, int, Callable[[Any], Any], Any]] = []
        self._seq = 0
        self._stop_requested = False

    def stop(self) -> None:
        self._stop_requested = True

    def at(self, time: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._events.append((time, self._seq, fn, arg))
        self._seq += 1

    def after(self, delay: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.at(self.now + delay, fn, arg)

    def asap(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Run ``fn(arg)`` at once, as the next event, when no queued
        event is due and no stop is pending; else queue it at ``now``."""
        if self._stop_requested or any(e[0] <= self.now for e in self._events):
            self.at(self.now, fn, arg)
            return
        self._seq += 1
        self.events_run += 1
        fn(arg)

    def pending(self) -> int:
        return len(self._events)

    def _next(self) -> int:
        """Index of the pending event with the least (time, seq)."""
        return min(range(len(self._events)),
                   key=lambda i: self._events[i][:2])

    def _dispatch(self) -> bool:
        """Run the next event; True if it requested a stop."""
        time, _, fn, arg = self._events.pop(self._next())
        self.now = time
        self.events_run += 1
        fn(arg)
        if self._stop_requested:
            self._stop_requested = False
            return True
        return False

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        dispatched = 0
        while self._events and (max_events is None or dispatched < max_events):
            if until is not None and self._events[self._next()][0] > until:
                self.now = until
                return self.now
            dispatched += 1
            if self._dispatch():
                return self.now
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def drain(self) -> int:
        if self._stop_requested:
            self._stop_requested = False
            return self.now
        while self._events:
            if self._dispatch():
                break
        return self.now
