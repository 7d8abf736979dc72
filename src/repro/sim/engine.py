"""Discrete-event simulation engine.

A single global integer-picosecond timeline.  Events are ``(time, seq,
fn, arg)`` tuples held in one binary heap.  ``seq`` is unique and counts
up in insertion order, so tuple order is exactly the ``(time, seq)``
dispatch order (``fn`` is never compared) and every simulation is
bit-reproducible for a given seed.

The engine deliberately has no notion of "processes" or coroutines: the
memory system is naturally callback-shaped (an access completes -> the
request state machine advances -> maybe new accesses enqueue -> maybe
the scheduler issues), and plain callbacks are both the fastest and the
simplest representation in CPython.

There is no cancellation: a component whose scheduled callback can go
stale (a core's load wakeups) drops it itself by token, so every entry
in the heap will run and ``pending()`` is the heap's length.

:meth:`Simulator.asap` schedules at the current time, but runs the
callback at once when it would be the very next event popped anyway;
the ``(time, seq)`` accounting of that shortcut stays in this module.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

#: One scheduled callback: ``(time, seq, fn, arg)``.
_Entry = tuple[int, int, Callable[[Any], Any], Any]


class Simulator:
    """The event loop: a binary heap of events.  All components share one.

    Attributes
    ----------
    now:
        Current simulation time in picoseconds.  Monotonically
        non-decreasing across callback invocations.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_run", "_stop_requested")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[_Entry] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._stop_requested: bool = False

    def stop(self) -> None:
        """Request an exact stop: the loop exits after the current callback.

        Callable from inside an event callback (the usual case: a model
        component detects its termination condition).  The stopping point
        is a precise *event*, so the end state cannot depend on how
        callers sliced the event loop: a run advanced in ``max_events``
        slices ends exactly where a straight-through run does.  The
        request is consumed by the loop that honours it.
        """
        self._stop_requested = True

    def at(self, time: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1

    def after(self, delay: int, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.at(self.now + delay, fn, arg)

    def asap(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """``at(now, fn, arg)``, run inline when it would be next anyway.

        Meant as the last action of an event callback.  When no queued
        event is due at ``now`` and no stop is pending, the new event
        would be the very next one the loop pops, so ``fn(arg)`` runs at
        once: it takes its ``seq`` and counts in ``events_run`` exactly
        as the popped event would, and the run is order-identical.
        Otherwise it is queued with :meth:`at`.

        An inline callback runs inside the event that called ``asap``.
        It counts in ``events_run`` but not against ``run``'s
        ``max_events``, which bounds the events popped from the queue.
        """
        heap = self._heap
        if self._stop_requested or (heap and heap[0][0] <= self.now):
            self.at(self.now, fn, arg)
            return
        self._seq += 1
        self._events_run += 1
        fn(arg)

    def pending(self) -> int:
        """Number of events in the queue."""
        return len(self._heap)

    @property
    def events_run(self) -> int:
        """Total callbacks executed so far, inline ones included."""
        return self._events_run

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
            if until is not None and heap[0][0] > until:
                self.now = until
                return self.now
            time, _, fn, arg = heappop(heap)
            self.now = time
            self._events_run += 1
            fn(arg)
            if self._stop_requested:
                self._stop_requested = False
                return self.now
            if budget > 0:
                budget -= 1
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def drain(self) -> int:
        """Run until a callback calls :meth:`stop` or the queue empties.

        The system harness drains to the last core's retiring event,
        which calls :meth:`stop`.  A stop requested *before* the drain
        ends it before any event runs.
        """
        heap = self._heap
        if self._stop_requested:
            self._stop_requested = False
            return self.now
        while heap:
            time, _, fn, arg = heappop(heap)
            self.now = time
            self._events_run += 1
            fn(arg)
            if self._stop_requested:
                self._stop_requested = False
                break
        return self.now
