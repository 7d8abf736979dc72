"""Discrete-event engine: ordering, cancellation, determinism, boundaries.

``TestRunStopBoundaries`` pins the exact ``run(until=...)`` /
``max_events`` / ``stop()`` interaction semantics (including the
historical quirk where an exhausted budget still advances the clock to
``until``), which the system harness and the snapshot layer rely on.
"""

import pytest

from repro.sim.engine import Simulator


@pytest.fixture(params=["heap"])
def make_sim():
    """Factory for the binary-heap engine (the test id names the queue)."""
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


class TestCancellation:
    def test_cancelled_event_skipped(self, make_sim):
        sim = make_sim()
        log = []
        ev = sim.at(100, log.append, "dead")
        sim.at(200, log.append, "alive")
        ev.cancel()
        sim.run()
        assert log == ["alive"]

    def test_pending_counts_live_only(self, make_sim):
        sim = make_sim()
        ev = sim.at(100, lambda _: None)
        sim.at(200, lambda _: None)
        ev.cancel()
        assert sim.pending() == 1

    def test_double_cancel_counts_once(self, make_sim):
        sim = make_sim()
        ev = sim.at(100, lambda _: None)
        sim.at(200, lambda _: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending() == 1

    def test_cancel_after_run_is_a_noop(self, make_sim):
        sim = make_sim()
        ev = sim.at(100, lambda _: None)
        sim.run()
        ev.cancel()                     # event already executed
        assert sim.pending() == 0       # counters unharmed
        assert sim._cancelled == 0
        sim.at(200, lambda _: None)
        assert sim.pending() == 1

    def test_cancel_mid_batch(self, make_sim):
        """Cancelling a later same-timestamp event from an earlier one
        must suppress it."""
        sim = make_sim()
        log = []
        victims = []
        sim.at(100, lambda _: victims[0].cancel())
        victims.append(sim.at(100, log.append, "dead"))
        sim.at(100, log.append, "alive")
        sim.run()
        assert log == ["alive"]
        assert sim.pending() == 0

    def test_pending_is_a_counter_not_a_scan(self, make_sim):
        sim = make_sim()
        events = [sim.at(t, lambda _: None) for t in range(1, 50)]
        events[0].cancel()
        assert sim.pending() == 48
        assert sim._live == 48

    def test_compacts_when_mostly_cancelled(self, make_sim):
        sim = make_sim()
        events = [sim.at(t, lambda _: None) for t in range(1, 201)]
        for ev in events[:150]:
            ev.cancel()
        # Compaction bounds the dead fraction: once cancelled events
        # exceed half the queue they are dropped, so the engine never
        # holds more than ~2x the live events.
        assert len(sim._heap) <= 2 * sim.pending()
        assert sim.pending() == 50

    def test_compaction_preserves_order_and_results(self, make_sim):
        sim = make_sim()
        log = []
        events = [sim.at(t, log.append, t) for t in range(1, 201)]
        for ev in events[::2]:   # cancel every even-index event
            ev.cancel()
        for ev in events[1::4]:  # and some more, crossing the 50% line
            ev.cancel()
        sim.run()
        survivors = [t for t in range(1, 201)
                     if (t - 1) % 2 and (t - 2) % 4]
        assert log == survivors

    def test_cancel_during_run_is_safe(self, make_sim):
        """A callback cancelling enough events to trigger compaction must
        not desynchronise the loop's view of the queue."""
        sim = make_sim()
        log = []
        later = [sim.at(1000 + t, log.append, t) for t in range(100)]

        def axe(_):
            for ev in later[:80]:
                ev.cancel()

        sim.at(1, axe)
        sim.at(2, log.append, "early")
        sim.run()
        assert log == ["early"] + list(range(80, 100))
        assert sim.pending() == 0
        assert len(sim._heap) == 0


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
        sim = make_sim()
        count = [0]

        def tick(_):
            count[0] += 1
            if count[0] < 100:
                sim.after(10, tick)

        sim.at(0, tick)
        sim.drain(lambda: count[0] >= 5, check_every=1)
        assert count[0] == 5


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

    def test_until_between_cancelled_events(self, make_sim):
        """Cancelled corpses on either side of ``until`` never run; the
        clock still lands exactly on ``until``."""
        sim = make_sim()
        log = []
        before = sim.at(100, log.append, "cancelled-before")
        sim.at(200, log.append, "live-before")
        after = sim.at(900, log.append, "cancelled-after")
        sim.at(950, log.append, "live-after")
        before.cancel()
        after.cancel()
        sim.run(until=500)
        assert log == ["live-before"]
        assert sim.now == 500
        assert sim.pending() == 1
        sim.run()
        assert log == ["live-before", "live-after"]

    def test_until_with_only_cancelled_events(self, make_sim):
        sim = make_sim()
        evs = [sim.at(t, lambda _: None) for t in (100, 200, 300)]
        for ev in evs:
            ev.cancel()
        sim.run(until=250)
        assert sim.now == 250
        assert sim.pending() == 0
        assert sim.events_run == 0

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
        sim.drain(lambda: False, check_every=1)
        assert log == []
        assert sim.pending() == 1
        sim.drain(lambda: True, check_every=1)   # predicate True after 1 event
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
