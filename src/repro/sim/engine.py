"""Discrete-event simulation engine.

A single global integer-picosecond timeline.  Events are ``(time, seq,
callback, arg)`` held in one binary heap; ``seq`` breaks ties
deterministically in insertion order, so the total dispatch order is
``(time, seq)`` and every simulation is bit-reproducible for a given
seed.

The engine deliberately has no notion of "processes" or coroutines: the
memory system is naturally callback-shaped (an access completes -> the
request state machine advances -> maybe new accesses enqueue -> maybe
the scheduler issues), and plain callbacks are both the fastest and the
simplest representation in CPython.

Cancellation is O(1): a cancelled event stays in the heap (removing an
arbitrary element is O(n)) but is counted, and once cancelled events
exceed half the heap it is compacted in one O(n) pass — so cancelled
events can never accumulate unboundedly, and ``pending()`` is a counter
read instead of a scan.  Compaction preserves pop order exactly: it only
removes dead events, never reorders live ones.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Any, Callable, Optional

#: Compact only beyond this heap size (tiny heaps aren't worth the pass).
_COMPACT_MIN = 64

_TIME_SEQ = attrgetter("time", "seq")


class Event:
    """A cancellable scheduled callback."""

    __slots__ = ("time", "seq", "fn", "arg", "cancelled", "_sim")

    time: int
    seq: int
    fn: Callable[[Any], Any]
    arg: Any
    cancelled: bool
    _sim: Simulator | None

    def __init__(self, time: int, seq: int, fn: Callable[[Any], Any],
                 arg: Any = None, sim: Simulator | None = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self._sim = sim

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped.

        Safe to call repeatedly and after the event has already run
        (a no-op then — ``_sim`` is cleared once the event leaves the
        heap, so the live/cancelled bookkeeping can't be corrupted).
        """
        if self.cancelled:
            return
        sim = self._sim
        if sim is None:
            return
        self.cancelled = True
        self._sim = None
        sim._live -= 1
        sim._cancelled += 1
        sim._maybe_compact()


def _arg_kind(arg: Any) -> str:
    if arg is None or isinstance(arg, (int, str)):
        return repr(arg)
    return type(arg).__name__


class Simulator:
    """The event loop: a binary heap of events.  All components share one.

    Attributes
    ----------
    now:
        Current simulation time in picoseconds.  Monotonically
        non-decreasing across callback invocations.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_run", "_live", "_cancelled",
                 "_stop_requested")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._live: int = 0        # scheduled and not yet run/cancelled
        self._cancelled: int = 0   # cancelled but still sitting in the heap
        self._stop_requested: bool = False

    def stop(self) -> None:
        """Request an exact stop: the loop exits after the current callback.

        Callable from inside an event callback (the usual case: a model
        component detects its termination condition).  Unlike ``drain``'s
        periodic predicate, the stopping point is a precise *event*, so
        the end state cannot depend on how callers sliced the event loop
        — the determinism the snapshot layer's bit-identity invariant
        rests on.  The request is consumed by the loop that honours it.
        """
        self._stop_requested = True

    def at(self, time: int, fn: Callable[[Any], Any], arg: Any = None) -> Event:
        """Schedule ``fn(arg)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        ev = Event(time, self._seq, fn, arg, self)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def after(self, delay: int, fn: Callable[[Any], Any], arg: Any = None) -> Event:
        """Schedule ``fn(arg)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + delay, fn, arg)

    def pending(self) -> int:
        """Number of live events in the queue (O(1))."""
        return self._live

    @property
    def events_run(self) -> int:
        """Total callbacks executed so far (for progress reporting)."""
        return self._events_run

    def _maybe_compact(self) -> None:
        """Drop cancelled events once they dominate the heap (O(n), rare)."""
        heap = self._heap
        if len(heap) >= _COMPACT_MIN and self._cancelled * 2 > len(heap):
            # In place: run()/drain() hold a local alias to this list.
            heap[:] = [e for e in heap if not e.cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def signature(self) -> dict[str, Any]:
        """Comparable digest of the engine state (snapshot test hook).

        Two simulators with equal signatures hold the same clock, the
        same counters and the same scheduled work: every pending event
        is summarised as ``(time, seq, cancelled, callback qualname,
        arg kind)``, enumerated in the canonical ``(time, seq)`` order
        (the heap's array layout is an implementation detail a faithful
        copy need not share).  Callbacks are named, not identity-compared,
        so signatures of *independent* simulations (original vs.
        restored-from-snapshot) can be equated.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "events_run": self._events_run,
            "live": self._live,
            "cancelled": self._cancelled,
            "heap": [(e.time, e.seq, e.cancelled,
                      getattr(e.fn, "__qualname__", repr(e.fn)),
                      _arg_kind(e.arg))
                     for e in sorted(self._heap, key=_TIME_SEQ)],
        }

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly after this time
            (the clock is left at ``until``).
        max_events:
            Safety valve for tests: stop after this many callbacks.
            ``0`` executes no events at all (``None`` means unlimited).

        Returns
        -------
        int
            The simulation time when the loop stopped.

        The ``until``/``max_events`` interaction and the ``stop()``
        semantics are pinned by tests/test_engine.py
        (TestRunStopBoundaries): exhausting the budget with ``until`` set
        still advances the clock to ``until`` (even past undispatched
        events), while a ``stop()`` consumed by this run leaves the clock
        at the stopping event's time.
        """
        heap = self._heap
        budget = max_events if max_events is not None else -1
        while heap:
            if budget == 0:      # max_events=0 means "run zero events"
                break
            ev = heap[0]
            if ev.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if until is not None and ev.time > until:
                self.now = until
                return self.now
            heapq.heappop(heap)
            ev._sim = None       # out of the heap: late cancel() is a no-op
            self._live -= 1
            self.now = ev.time
            self._events_run += 1
            ev.fn(ev.arg)
            if self._stop_requested:
                self._stop_requested = False
                return self.now
            if budget > 0:
                budget -= 1
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def drain(self, fn: Callable[[], bool], check_every: int = 4096) -> int:
        """Run until ``fn()`` returns True, checking every ``check_every`` events.

        Used by the system harness to stop when all cores have retired
        their instruction budgets without polling on every event.  A
        callback calling :meth:`stop` ends the drain at that exact event
        (and a stop requested *before* the drain ends it before any event
        runs) — the periodic predicate remains as the fallback for
        components that don't signal exactly.
        """
        heap = self._heap
        counter = 0
        if self._stop_requested:
            self._stop_requested = False
            return self.now
        while heap:
            ev = heapq.heappop(heap)
            if ev.cancelled:
                self._cancelled -= 1
                continue
            ev._sim = None       # out of the heap: late cancel() is a no-op
            self._live -= 1
            self.now = ev.time
            self._events_run += 1
            ev.fn(ev.arg)
            if self._stop_requested:
                self._stop_requested = False
                break
            counter += 1
            if counter >= check_every:
                counter = 0
                if fn():
                    break
        return self.now
