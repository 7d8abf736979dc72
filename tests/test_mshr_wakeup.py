"""The MSHR file, its demand-latency accounting, and the wakeup invariant.

The headline invariant: ``full_stalls`` counts one stall per *held
operation*, never per retry attempt, and a fill wakes ``min(free slots,
waiters)`` cores in FIFO order — not the whole waiter list.
"""

import pytest

from repro.config import scaled_config
from repro.mem.mshr import MSHRFile
from repro.sim.cpu import MISS, MSHR_FULL
from repro.sim.system import System
from repro.workloads.profiles import profile


class TestMSHRFile:
    def test_fresh_allocation(self):
        m = MSHRFile(4)
        entry, fresh = m.allocate(0x1000, 0)
        assert fresh and entry.block_addr == 0x1000

    def test_coalescing(self):
        m = MSHRFile(4)
        e1, fresh1 = m.allocate(0x1000, 0)
        e2, fresh2 = m.allocate(0x1000, 5)
        assert fresh1 and not fresh2
        assert e1 is e2
        assert m.stats.coalesced == 1

    def test_write_coalesce_marks_dirty(self):
        m = MSHRFile(4)
        m.allocate(0x1000, 0, is_write=False)
        entry, _ = m.allocate(0x1000, 1, is_write=True)
        assert entry.any_write

    def test_demand_capacity_bounds(self):
        m = MSHRFile(2)
        assert m.allocate(0x000, 0)[1]
        assert m.allocate(0x040, 0)[1]
        assert m.free == 0
        entry, fresh = m.allocate(0x080, 0)
        assert entry is None and not fresh
        assert m.stats.full_stalls == 1

    def test_retry_not_double_counted(self):
        m = MSHRFile(1)
        m.allocate(0x000, 0)
        assert m.allocate(0x040, 0) == (None, False)
        assert m.allocate(0x040, 0, retry=True) == (None, False)
        assert m.allocate(0x040, 0, retry=True) == (None, False)
        assert m.stats.full_stalls == 1    # one held op, many attempts

    def test_complete_frees(self):
        m = MSHRFile(1)
        m.allocate(0x0, 0)
        m.complete(0x0, now=10)
        assert m.free == 1
        entry, fresh = m.allocate(0x40, 0)
        assert fresh

    def test_invalid_capacities_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestDemandLatency:
    def test_accumulates_sum_and_max(self):
        m = MSHRFile(4)
        m.allocate(0x000, 100)
        m.allocate(0x040, 100)
        m.complete(0x000, now=400)
        m.complete(0x040, now=700)
        st = m.stats
        assert st.demand_fills == 2
        assert st.demand_latency_sum_ps == 300 + 600
        assert st.demand_latency_max_ps == 600
        assert st.snapshot()["mean_demand_latency_ps"] == 450.0

    def test_unknown_completion_raises(self):
        with pytest.raises(KeyError):
            MSHRFile(1).complete(0x123400, now=0)


class _Waiter:
    """Stands in for a core parked on a full MSHR file."""

    def __init__(self):
        self.woken = 0

    def mshr_freed(self):
        self.woken += 1


def contended_system(l2_mshrs=2, n_cores=3):
    """A real System with a recorded (non-simulating) controller."""
    cfg = scaled_config(8).with_overrides([("l2_mshrs", l2_mshrs)])
    s = System(cfg, "CD", [profile("gcc")] * n_cores,
               footprint_scale=1 / 64, seed=1)
    submitted = []
    s.controller.submit = submitted.append
    return s, submitted


class TestWakeupFairness:
    def test_full_stalls_count_held_ops_not_retries(self):
        s, _ = contended_system(l2_mshrs=2)
        c0, c1, c2 = s.cores
        assert s.mem_access(c0, 0x1000, False, 0)[0] == MISS
        assert s.mem_access(c0, 0x2000, False, 0)[0] == MISS
        assert s.mem_access(c1, 0x3000, False, 0)[0] == MSHR_FULL
        assert s.mem_access(c2, 0x4000, False, 0)[0] == MSHR_FULL
        # Retries while the file is still full are the same held ops.
        assert s.mem_access(c1, 0x3000, False, 0, retrying=True)[0] == MSHR_FULL
        assert s.mem_access(c2, 0x4000, False, 0, retrying=True)[0] == MSHR_FULL
        assert s.mshr.stats.full_stalls == 2

    def test_one_fill_wakes_one_waiter_fifo(self):
        s, submitted = contended_system(l2_mshrs=2)
        c0 = s.cores[0]
        s.mem_access(c0, 0x1000, False, 0)
        s.mem_access(c0, 0x2000, False, 0)
        w1, w2 = _Waiter(), _Waiter()
        s.wait_for_mshr(w1)
        s.wait_for_mshr(w2)
        s._l2_fill_done(next(r for r in submitted if r.addr == 0x1000))
        assert (w1.woken, w2.woken) == (1, 0)
        assert s._mshr_waiters == [w2]
        s._l2_fill_done(next(r for r in submitted if r.addr == 0x2000))
        assert (w1.woken, w2.woken) == (1, 1)
        assert s._mshr_waiters == []

    def test_wakes_min_of_free_slots_and_waiters(self):
        s, submitted = contended_system(l2_mshrs=2)
        c0 = s.cores[0]
        s.mem_access(c0, 0x1000, False, 0)
        s.mem_access(c0, 0x2000, False, 0)
        # A fill with nobody waiting frees a slot silently.
        s._l2_fill_done(next(r for r in submitted if r.addr == 0x1000))
        waiters = [_Waiter() for _ in range(3)]
        for w in waiters:
            s.wait_for_mshr(w)
        # Two slots free, three waiters: wake exactly the first two.
        s._l2_fill_done(next(r for r in submitted if r.addr == 0x2000))
        assert [w.woken for w in waiters] == [1, 1, 0]
        assert s._mshr_waiters == [waiters[2]]


class TestContentionEndToEnd:
    def test_three_core_run_with_tiny_mshr_file(self):
        cfg = scaled_config(8).with_overrides([("l2_mshrs", 2)])
        s = System(cfg, "CD", [profile("lbm")] * 3,
                   footprint_scale=1 / 64, seed=2)
        r = s.run(warmup_insts=2_000, measure_insts=6_000,
                  replay_accesses=5_000)
        st = r.metrics["mshr"]
        assert all(i > 0 for i in r.ipcs)
        assert st["full_stalls"] > 0       # 3 cores over 2 MSHRs contend
        assert st["demand_fills"] > 0
        assert st["mean_demand_latency_ps"] > 0
        assert st["demand_latency_max_ps"] >= st["mean_demand_latency_ps"]

    def test_contended_run_is_deterministic(self):
        def run():
            cfg = scaled_config(8).with_overrides([("l2_mshrs", 2)])
            return System(cfg, "CD", [profile("lbm")] * 3,
                          footprint_scale=1 / 64, seed=2).run(
                warmup_insts=2_000, measure_insts=6_000,
                replay_accesses=5_000)
        r1, r2 = run(), run()
        assert r1.ipcs == r2.ipcs
        assert r1.metrics["mshr"] == r2.metrics["mshr"]
