"""Discrete-event engine: ordering, determinism, boundaries, lockstep.

``TestRunStopBoundaries`` pins the exact ``run(until=...)`` /
``max_events`` / ``stop()`` interaction semantics (including the
historical quirk where an exhausted budget still advances the clock to
``until``), which the system harness and the snapshot layer rely on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

from reference import NaiveSimulator


@pytest.fixture(params=["heap"])
def make_sim():
    """Factory for the engine.  The ``heap`` id names its queue; it is kept
    so the tests' ids stay stable."""
    return Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(300, log.append, "c")
        sim.at(100, log.append, "a")
        sim.at(200, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, make_sim):
        sim = make_sim()
        log = []
        for tag in "abcde":
            sim.at(500, log.append, tag)
        sim.run()
        assert log == list("abcde")

    def test_after_relative(self, make_sim):
        sim = make_sim()
        sim.at(100, lambda _: sim.after(50, lambda _: None))
        sim.run()
        assert sim.now == 150

    def test_past_scheduling_rejected(self, make_sim):
        sim = make_sim()
        sim.at(100, lambda _: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(50, lambda _: None)

    def test_negative_delay_rejected(self, make_sim):
        with pytest.raises(ValueError):
            make_sim().after(-1, lambda _: None)

    def test_arg_passed(self, make_sim):
        sim = make_sim()
        got = []
        sim.at(10, got.append, 42)
        sim.run()
        assert got == [42]

    def test_same_time_event_scheduled_mid_batch_joins_it(self, make_sim):
        """A callback scheduling at ``sim.now`` runs within the same
        timestamp, after every event already scheduled there."""
        sim = make_sim()
        log = []
        sim.at(100, lambda _: (log.append("a"),
                               sim.at(100, log.append, "d")))
        sim.at(100, log.append, "b")
        sim.at(100, log.append, "c")
        sim.at(200, log.append, "late")
        sim.run()
        assert log == ["a", "b", "c", "d", "late"]


class TestRunControl:
    def test_until_stops_clock(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(100, log.append, 1)
        sim.at(900, log.append, 2)
        sim.run(until=500)
        assert log == [1]
        assert sim.now == 500

    def test_until_resumable(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(900, log.append, 2)
        sim.run(until=500)
        sim.run()
        assert log == [2]
        assert sim.now == 900

    def test_until_with_empty_queue_advances_clock(self, make_sim):
        sim = make_sim()
        sim.run(until=777)
        assert sim.now == 777

    def test_max_events(self, make_sim):
        sim = make_sim()
        log = []
        for t in (1, 2, 3, 4):
            sim.at(t, log.append, t)
        sim.run(max_events=2)
        assert log == [1, 2]

    def test_max_events_zero_runs_nothing(self, make_sim):
        """Regression: ``max_events=0`` used to mean unlimited (the
        ``budget > 0`` guard never fired); it must execute zero events."""
        sim = make_sim()
        log = []
        sim.at(100, log.append, 1)
        sim.run(max_events=0)
        assert log == []
        assert sim.now == 0
        assert sim.pending() == 1

    def test_max_events_zero_is_resumable(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(100, log.append, 1)
        sim.run(max_events=0)
        sim.run()
        assert log == [1]
        assert sim.now == 100

    def test_events_run_counter(self, make_sim):
        sim = make_sim()
        for t in (1, 2, 3):
            sim.at(t, lambda _: None)
        sim.run()
        assert sim.events_run == 3

    def test_drain_stop_condition(self, make_sim):
        """drain() runs until a callback calls stop(), at that event."""
        sim = make_sim()
        count = [0]

        def tick(_):
            count[0] += 1
            if count[0] == 5:
                sim.stop()
            if count[0] < 100:
                sim.after(10, tick)

        sim.at(0, tick)
        assert sim.drain() == 40
        assert count[0] == 5
        assert sim.pending() == 1


class TestRunStopBoundaries:
    """Pin the exact ``until`` x ``max_events`` x ``stop()`` semantics.

    Where a combined behaviour is quirky (an exhausted budget advancing
    the clock to ``until`` past undispatched events), the quirk itself
    is pinned — callers rely on pinned semantics.
    """

    def test_until_exactly_at_event_time_runs_the_event(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(500, log.append, "on-the-line")
        sim.at(501, log.append, "past")
        sim.run(until=500)
        assert log == ["on-the-line"]
        assert sim.now == 500
        sim.run()
        assert log == ["on-the-line", "past"]

    def test_until_exactly_at_tied_events_runs_the_whole_batch(self, make_sim):
        sim = make_sim()
        log = []
        for tag in "abc":
            sim.at(500, log.append, tag)
        sim.run(until=500)
        assert log == ["a", "b", "c"]
        assert sim.now == 500

    def test_max_events_hits_mid_batch(self, make_sim):
        """A budget expiring between same-timestamp events splits the
        batch; the remainder runs, in order, on resume."""
        sim = make_sim()
        log = []
        for tag in "abcde":
            sim.at(100, log.append, tag)
        sim.run(max_events=2)
        assert log == ["a", "b"]
        assert sim.now == 100
        assert sim.pending() == 3
        sim.run(max_events=1)
        assert log == ["a", "b", "c"]
        sim.run()
        assert log == list("abcde")

    def test_budget_exhaustion_still_advances_clock_to_until(self, make_sim):
        """Pinned quirk: when ``max_events`` stops the loop first, the
        clock still jumps to ``until`` — even past undispatched events —
        and a later run() dispatches them at their own (now past) times.
        """
        sim = make_sim()
        log = []
        sim.at(100, lambda _: log.append(("a", sim.now)))
        sim.at(200, lambda _: log.append(("b", sim.now)))
        sim.run(until=500, max_events=1)
        assert log == [("a", 100)]
        assert sim.now == 500            # jumped past the pending event
        assert sim.pending() == 1
        sim.run()
        # The leftover dispatches at its own timestamp: the clock moves
        # backwards across run() calls in this (test-only) regime.
        assert log == [("a", 100), ("b", 200)]
        assert sim.now == 200

    def test_budget_exhaustion_mid_batch_with_until(self, make_sim):
        sim = make_sim()
        log = []
        for tag in "abc":
            sim.at(100, log.append, tag)
        sim.run(until=400, max_events=2)
        assert log == ["a", "b"]
        assert sim.now == 400
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 100

    def test_stop_during_run_with_until_leaves_clock_at_event(self, make_sim):
        """stop() consumed by run(until=...) returns at the stopping
        event's time — it does NOT advance the clock to ``until``."""
        sim = make_sim()
        sim.at(100, lambda _: sim.stop())
        sim.at(900, lambda _: None)
        assert sim.run(until=500) == 100
        assert sim.now == 100
        assert sim.pending() == 1

    def test_stop_mid_batch_preserves_the_rest(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(100, log.append, "a")
        sim.at(100, lambda _: sim.stop())
        sim.at(100, log.append, "b")
        sim.run()
        assert log == ["a"]
        assert sim.pending() == 1
        sim.run()
        assert log == ["a", "b"]

    def test_stop_is_one_shot(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(100, lambda _: sim.stop())
        sim.at(200, log.append, "next-run")
        sim.run()
        assert log == []
        sim.run()                        # the request was consumed
        assert log == ["next-run"]

    def test_stop_requested_before_drain_runs_nothing(self, make_sim):
        sim = make_sim()
        log = []
        sim.at(100, log.append, "x")
        sim.stop()
        sim.drain()
        assert log == []
        assert sim.pending() == 1
        sim.drain()                      # the request was consumed
        assert log == ["x"]

    def test_stop_requested_before_run_is_consumed_after_one_event(self, make_sim):
        """run() (unlike drain) checks stop only after each callback, so
        a pre-set request lets exactly one event through."""
        sim = make_sim()
        log = []
        sim.at(100, log.append, "one")
        sim.at(200, log.append, "two")
        sim.stop()
        sim.run()
        assert log == ["one"]
        sim.run()
        assert log == ["one", "two"]

    def test_callback_exception_leaves_queue_consistent(self, make_sim):
        sim = make_sim()
        log = []

        def boom(_):
            raise RuntimeError("boom")

        sim.at(100, log.append, "a")
        sim.at(100, boom)
        sim.at(100, log.append, "b")
        sim.at(200, log.append, "c")
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["a"]
        assert sim.pending() == 2        # the faulting event is gone
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 200


class TestAsap:
    """``asap`` runs a callback inline exactly when the heap would pop it
    next, and is otherwise ``at(now, ...)``."""

    def test_runs_inline_when_nothing_is_due_now(self):
        sim = Simulator()
        log = []

        def parent(_):
            sim.asap(log.append, "child")
            log.append(("parent", sim.pending()))  # probe: not a tail call

        sim.at(100, parent)
        sim.at(200, log.append, "later")
        sim.run()
        assert log == ["child", ("parent", 1), "later"]
        assert sim.events_run == 3

    def test_queues_behind_a_same_time_event(self):
        sim = Simulator()
        log = []

        def parent(_):
            sim.asap(log.append, "child")
            log.append(("parent", sim.pending()))

        sim.at(100, parent)
        sim.at(100, log.append, "waiting")
        sim.run()
        assert log == [("parent", 2), "waiting", "child"]
        assert sim.events_run == 3

    def test_queues_when_a_stop_is_pending(self):
        sim = Simulator()
        log = []

        def parent(_):
            sim.stop()
            sim.asap(log.append, "child")

        sim.at(100, parent)
        assert sim.run() == 100
        assert log == [] and sim.pending() == 1
        sim.run()
        assert log == ["child"]

    def test_matches_the_heap_path(self):
        """The same cascade with ``asap`` and with ``at(now, ...)``: equal
        dispatch log, ``events_run`` and tie order of later events."""
        def cascade(inline):
            sim = Simulator()
            log = []

            def now_next(fn, arg):
                if inline:
                    sim.asap(fn, arg)
                else:
                    sim.at(sim.now, fn, arg)

            def child(tag):
                log.append((sim.now, tag))
                sim.at(sim.now + 10, log.append, (tag, "tie"))
                if tag < 3:
                    now_next(child, tag + 1)

            def parent(tag):
                log.append((sim.now, "parent", tag))
                sim.at(sim.now + 10, log.append, ("parent", "tie"))
                now_next(child, 0)

            sim.at(0, parent, "a")
            sim.at(50, parent, "b")
            sim.at(50, log.append, "same time as b")
            sim.run()
            return log, sim.events_run, sim.now

        assert cascade(True) == cascade(False)
        assert cascade(True)[1] == 2 + 1 + 2 * 4 + 2 * 5

    def test_inline_callbacks_do_not_count_against_max_events(self):
        """As the docstring states: an inline callback is part of the
        event that called ``asap``; it counts in ``events_run`` but not
        against ``max_events``."""
        sim = Simulator()
        log = []

        def parent(_):
            log.append("parent")
            sim.asap(log.append, "child")

        sim.at(100, parent)
        sim.at(200, log.append, "later")
        sim.run(max_events=1)
        assert log == ["parent", "child"]
        assert sim.events_run == 2 and sim.pending() == 1
        sim.run()
        assert log == ["parent", "child", "later"]


class TestDeterminism:
    def test_identical_runs(self, make_sim):
        def run_once():
            sim = make_sim()
            log = []

            def spawn(depth):
                log.append((sim.now, depth))
                if depth < 5:
                    sim.after(7, spawn, depth + 1)
                    sim.after(3, spawn, depth + 1)

            sim.at(0, spawn, 0)
            sim.run()
            return log

        assert run_once() == run_once()


# --- lockstep against the naive engine -------------------------------------

#: event kinds of a generated program; kind k spawns only kinds > k, so
#: every program's event tree is finite and drain() always terminates
N_KINDS = 6


@st.composite
def behaviours(draw):
    """Per kind: the (delay, kind) children its callback schedules,
    whether it calls stop(), and the kind (or None) it passes to a
    closing asap().  Delay 0 schedules into the running batch."""
    table = []
    for kind in range(N_KINDS):
        later = list(range(kind + 1, N_KINDS))
        children = draw(st.lists(
            st.tuples(st.sampled_from((0, 0, 1, 7)), st.sampled_from(later)),
            max_size=2)) if later else []
        stop = draw(st.sampled_from((False, False, True)))
        tail = draw(st.none() | st.sampled_from(later)) if later else None
        table.append((children, stop, tail))
    return table


ACTIONS = st.one_of(
    st.tuples(st.just("at"), st.integers(0, 60), st.integers(0, N_KINDS - 1)),
    st.tuples(st.just("after"), st.integers(0, 30),
              st.integers(0, N_KINDS - 1)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("run"), st.none() | st.integers(0, 80),
              st.none() | st.integers(0, 5)),
    st.tuples(st.just("drain")),
)


def execute(sim, table, program) -> list:
    """Drive ``sim`` through ``program``; the observable state after each
    action (dispatch log, return value, clock, counters)."""
    log = []

    def fire(kind):
        log.append((kind, sim.now))
        children, stop, tail = table[kind]
        for delay, child in children:
            sim.after(delay, fire, child)
        if stop:
            sim.stop()
        if tail is not None:
            sim.asap(fire, tail)

    states = []
    for op, *args in program:
        ret = None
        if op == "at":
            try:
                sim.at(args[0], fire, args[1])
            except ValueError:
                ret = "past"
        elif op == "after":
            sim.after(args[0], fire, args[1])
        elif op == "stop":
            sim.stop()
        elif op == "run":
            ret = sim.run(until=args[0], max_events=args[1])
        else:
            ret = sim.drain()
        states.append((op, ret, list(log), sim.now, sim.events_run,
                       sim.pending()))
    return states


class TestNaiveLockstep:
    @given(behaviours(), st.lists(ACTIONS, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_engine(self, table, program):
        """Any program of at/after/stop calls and callbacks closing with
        asap(), sliced by run(until=, max_events=) and drain(),
        dispatches the same events at the same times as the naive engine,
        with the same clock and counters."""
        assert (execute(Simulator(), table, program)
                == execute(NaiveSimulator(), table, program))
