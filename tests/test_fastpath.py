"""Indexed scheduling fast path: bit-identity with the naive scan path,
and DCA ScheduleAll hysteresis boundary pinning.

The fast path (``AccessQueue`` (class, bank, core) buckets +
``pick_banked`` + ``DCAController._ofs_buckets``) must select exactly the
access the naive reference selectors in ``reference.py`` (``bliss_pick``
over flat candidate lists, ``ofs_naive_candidates``) would.
``Access.seq`` is globally unique and the final tiebreak of every
policy, so the argmin is unique — these tests pin that equivalence over
randomized queue states, bank states, blacklists and RRPC states.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BLISSConfig, DRAMOrganization, DRAMTimings
from repro.core import make_controller
from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.bliss import BLISSScheduler
from repro.core.dca import ofs_bucket_filter
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.queues import AccessQueue
from repro.core.rrpc import RRPCTable
from repro.dram.channel import Channel
from repro.sim.engine import Simulator

from reference import bliss_pick, next_seq, ofs_naive_candidates

NUM_CORES = 8
#: OFS flushing factor of the lockstep's OFS mode (the paper's FF-4)
OFS_FF = 4


def random_state(rng, n_accesses, read_fraction=0.6, writes=False):
    """A random queue + channel with some open rows."""
    org = DRAMOrganization()
    channel = Channel(DRAMTimings.stacked(), org)
    nbanks = org.ranks_per_channel * org.banks_per_rank
    t = 0
    for b in range(nbanks):
        if rng.random() < 0.5:     # open a row in about half the banks
            rank, bank = divmod(b, org.banks_per_rank)
            _s, t = channel.issue(rank, bank, rng.randrange(8), False, t)
    q = AccessQueue(max(n_accesses, 1))
    for _ in range(n_accesses):
        gb = rng.randrange(nbanks)
        rank, bank = divmod(gb, org.banks_per_rank)
        if writes:
            role, rtype = AccessRole.DATA_WRITE, RequestType.WRITEBACK
        else:
            role = AccessRole.TAG_READ
            rtype = (RequestType.READ if rng.random() < read_fraction
                     else RequestType.WRITEBACK)
        req = CacheRequest(rtype, rng.randrange(1 << 20),
                           rng.randrange(NUM_CORES))
        q.push(Access(role, req, (0, rank, bank, rng.randrange(8), 0, gb),
                      seq=next_seq()))
    return q, channel


class TestPickEquivalence:
    """pick_banked(buckets) is the access bliss_pick(flat list) returns."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bliss_full_queue(self, seed):
        rng = random.Random(seed)
        q, channel = random_state(rng, rng.randrange(0, 65))
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        for c in range(NUM_CORES):
            s.blacklist[c] = rng.random() < 0.3
        assert (bliss_pick(s, list(q), channel, 0)
                is s.pick_banked(q.classes, channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_bliss_pr_partition(self, seed):
        rng = random.Random(100 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65))
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        naive = [a for a in q if a.priority == Priority.PR]
        assert (bliss_pick(s, naive, channel, 0)
                is s.pick_banked(q.pr_view, channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_frfcfs_full_queue(self, seed):
        rng = random.Random(200 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65), writes=True)
        s = FRFCFSScheduler(BLISSConfig(), NUM_CORES)
        assert (bliss_pick(s, list(q), channel, 0)
                is s.pick_banked(q.classes, channel, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_drain_order_identical(self, seed):
        """Pick+remove until empty: the full issue order matches, which
        also exercises bucket maintenance between picks."""
        rng = random.Random(300 + seed)
        q, channel = random_state(rng, 40)
        naive_pool = list(q)
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        s.blacklist[2] = True
        order_naive, order_indexed = [], []
        while naive_pool:
            a = bliss_pick(s, naive_pool, channel, 0)
            naive_pool.remove(a)
            order_naive.append(a)
        while len(q):
            a = s.pick_banked(q.classes, channel, 0)
            q.remove(a)
            order_indexed.append(a)
        assert order_naive == order_indexed


class TestOFSEquivalence:
    """DCA's bucketed OFS candidates == the naive §IV-C filter."""

    def build_dca(self, tiny_cfg):
        return make_controller("DCA", Simulator(), tiny_cfg, use_mapi=False)

    @pytest.mark.parametrize("seed", range(8))
    def test_candidate_sets_match(self, tiny_cfg, seed):
        rng = random.Random(seed)
        ctrl = self.build_dca(tiny_cfg)
        channel = ctrl.device.channels[0]
        nbanks = len(channel.open_rows)
        t = 0
        for b in range(nbanks):
            if rng.random() < 0.5:
                rank, bank = divmod(b, ctrl.cfg.org.banks_per_rank)
                _s, t = channel.issue(rank, bank, rng.randrange(8), False, t)
        for _ in range(rng.randrange(nbanks * 2)):
            ctrl.rrpc.on_priority_read(rng.randrange(nbanks))
        rq = ctrl.read_q[0]
        for _ in range(rng.randrange(1, 48)):
            gb = rng.randrange(nbanks)
            rank, bank = divmod(gb, ctrl.cfg.org.banks_per_rank)
            rtype = (RequestType.READ if rng.random() < 0.3
                     else RequestType.WRITEBACK)
            req = CacheRequest(rtype, 0, rng.randrange(4))
            rq.push(Access(AccessRole.TAG_READ, req,
                           (0, rank, bank, rng.randrange(8), 0, gb),
                           seq=next_seq()))
        naive = ofs_naive_candidates(rq, channel, ctrl.rrpc,
                                     ctrl.cfg.dca.flushing_factor)
        buckets = ctrl._ofs_buckets(0)
        # A bucket passes whole, or as its oldest row hit: the other
        # hits of a (bank, core) bucket can never be picked.
        lr = rq.classes[Priority.LR]
        assert set(buckets) <= set(lr)
        for key, bucket in lr.items():
            admitted = [a for a in bucket if a in naive]
            got = list(buckets.get(key, ()))
            assert got == admitted or got == admitted[:1]
        for bucket in buckets.values():
            assert all(a.global_bank == bucket.gb and a.core_id == bucket.core
                       for a in bucket)
        # ... and the resulting pick is the same access.
        sched = ctrl.sched[0]
        assert (bliss_pick(sched, naive, channel, 0)
                is sched.pick_banked((buckets,), channel, 0))


class TestSteadyStateLockstep:
    """Pick, remove, then push a same-class replacement, many times over.

    Each step is the controller's steady-state decision: the queue keeps
    its size and class mix, so bucket maintenance between picks runs
    under pushes as well as removals (``test_drain_order_identical`` only
    removes).  The naive path keeps a plain list and the indexed path an
    ``AccessQueue``; both must pick the identical access at every step.
    """

    QUEUE_SIZE = 48
    STEPS = 300

    @pytest.mark.parametrize(
        "mode", ["bliss_all", "pr_subset", "dca_ofs", "write_drain",
                 "frfcfs_all"])
    def test_pick_remove_push(self, mode):
        for seed in range(3):
            self.run_lockstep(mode, random.Random(seed))

    def run_lockstep(self, mode, rng):
        q, channel = random_state(
            rng, self.QUEUE_SIZE,
            read_fraction=0.10 if mode == "dca_ofs" else 0.60,
            writes=mode == "write_drain")
        pool = list(q)
        nbanks = len(channel.open_rows)
        banks_per_rank = DRAMOrganization().banks_per_rank
        if mode == "frfcfs_all":
            sched = FRFCFSScheduler(BLISSConfig(), NUM_CORES)
        else:
            sched = BLISSScheduler(BLISSConfig(), NUM_CORES)
            sched.blacklist[1] = sched.blacklist[5] = True
        rrpc = RRPCTable(nbanks)
        for _ in range(nbanks // 2):    # warm some banks' RRPC counters
            rrpc.on_priority_read(rng.randrange(nbanks))

        def access(role, rtype):
            gb = rng.randrange(nbanks)
            rank, bank = divmod(gb, banks_per_rank)
            req = CacheRequest(rtype, rng.randrange(1 << 20),
                               rng.randrange(NUM_CORES))
            return Access(role, req, (0, rank, bank, rng.randrange(8), 0, gb),
                          seq=next_seq())

        def replacements():
            if mode == "write_drain":
                return {Priority.WRITE: access(AccessRole.DATA_WRITE,
                                               RequestType.WRITEBACK)}
            return {Priority.PR: access(AccessRole.TAG_READ,
                                        RequestType.READ),
                    Priority.LR: access(AccessRole.TAG_READ,
                                        RequestType.WRITEBACK)}

        def naive_candidates():
            if mode == "pr_subset":
                return [a for a in pool if a.priority == Priority.PR]
            if mode == "dca_ofs":
                return ofs_naive_candidates(pool, channel, rrpc, OFS_FF)
            return pool

        def indexed_view():
            if mode == "pr_subset":
                return q.pr_view
            if mode == "dca_ofs":
                return (ofs_bucket_filter(q.classes[Priority.LR],
                                          channel.open_rows, rrpc, OFS_FF),)
            return q.classes

        picked = 0
        for step in range(self.STEPS):
            repl = replacements()
            a = bliss_pick(sched, naive_candidates(), channel, 0)
            assert sched.pick_banked(indexed_view(), channel, 0) is a, (
                f"{mode}: pick #{step} diverged")
            if a is None:
                continue
            picked += 1
            pool.remove(a)
            pool.append(repl[a.priority])
            q.remove(a)
            q.push(repl[a.priority])
        assert picked > self.STEPS // 2
        q.check_invariants()


#: channel index of the hypothesis lockstep's accesses: a nonzero channel
#: makes ``global_bank % len(open_rows)`` do real work
LOCKSTEP_CHANNEL = 2

#: (role, request type) of a PR, an LR and a write access
CLASS_SHAPES = ((AccessRole.TAG_READ, RequestType.READ),
                (AccessRole.TAG_READ, RequestType.WRITEBACK),
                (AccessRole.DATA_WRITE, RequestType.WRITEBACK))


@st.composite
def lockstep_programs(draw):
    """A scheduler kind, a blacklist, bank/RRPC state, accesses in a
    mostly-ascending push order, and a list of push/pick/drop steps."""
    org = DRAMOrganization()
    nbanks = org.ranks_per_channel * org.banks_per_rank
    kind = draw(st.sampled_from(["bliss", "frfcfs"]))
    blacklist = draw(st.lists(st.booleans(), min_size=NUM_CORES,
                              max_size=NUM_CORES))
    if kind == "bliss" and draw(st.integers(0, 9)) < 8:
        # The common case in real runs: some core is blacklisted.
        blacklist[draw(st.integers(0, NUM_CORES - 1))] = True
    rows = draw(st.integers(1, 8))
    open_rows = draw(st.lists(st.integers(-1, rows - 1), min_size=nbanks,
                              max_size=nbanks))
    # Few banks and cores in use make multi-entry buckets common.
    banks_used = draw(st.integers(1, nbanks))
    cores_used = draw(st.integers(1, NUM_CORES))
    # At most the last three PR-touched banks stay above FF-4.
    hot_banks = draw(st.lists(st.integers(0, banks_used - 1), min_size=1,
                              max_size=3))
    shapes = draw(st.lists(
        st.tuples(st.integers(0, banks_used - 1),   # local bank
                  st.integers(0, cores_used - 1),   # core
                  st.integers(0, rows - 1),         # row
                  st.integers(0, 2)),               # class
        min_size=4, max_size=48))
    order = list(range(len(shapes)))
    for _ in range(draw(st.integers(0, 6))):        # late arrivals
        i = draw(st.integers(0, len(order) - 1))
        j = draw(st.integers(0, len(order) - 1))
        order[i], order[j] = order[j], order[i]
    prefill = draw(st.integers(0, len(shapes)))
    steps = ["push"] * prefill + draw(st.lists(
        st.sampled_from(["push", "push", "pick", "drop"]), min_size=8,
        max_size=120))
    drops = draw(st.lists(st.integers(0, 1 << 16), min_size=len(steps),
                          max_size=len(steps)))
    return (kind, blacklist, open_rows, hot_banks, shapes, order, steps,
            drops)


class TestHypothesisLockstep:
    """``pick_banked`` over every view == ``bliss_pick`` over the same
    candidates, under BLISS (blacklist mostly non-empty) and FR-FCFS,
    with out-of-order pushes, picks that issue and re-blacklist, and
    arbitrary removals."""

    @settings(max_examples=200, deadline=None)
    @given(lockstep_programs())
    def test_pick_banked_matches_reference(self, program):
        (kind, blacklist, open_rows, hot_banks, shapes, order, steps,
         drops) = program
        org = DRAMOrganization()
        channel = Channel(DRAMTimings.stacked(), org)
        nbanks = len(channel.open_rows)
        channel.open_rows[:] = open_rows
        cls = BLISSScheduler if kind == "bliss" else FRFCFSScheduler
        sched = cls(BLISSConfig(), NUM_CORES)
        if kind == "bliss":
            sched.blacklist[:] = blacklist
        base = LOCKSTEP_CHANNEL * nbanks
        rrpc = RRPCTable(base + nbanks)
        for b in hot_banks:
            rrpc.on_priority_read(base + b)
        accesses = []
        for seq, (b, core, row, klass) in enumerate(shapes, start=1):
            role, rtype = CLASS_SHAPES[klass]
            rank, bank = divmod(b, org.banks_per_rank)
            req = CacheRequest(rtype, 0, core)
            accesses.append(Access(role, req, (LOCKSTEP_CHANNEL, rank, bank,
                                               row, 0, base + b), seq=seq))
        to_push = [accesses[i] for i in order]
        q = AccessQueue(len(accesses))
        live: list[Access] = []

        def views():
            yield live, q.classes
            yield ([a for a in live if a.priority == Priority.PR],
                   q.pr_view)
            yield (ofs_naive_candidates(live, channel, rrpc, OFS_FF),
                   (ofs_bucket_filter(q.classes[Priority.LR],
                                      channel.open_rows, rrpc, OFS_FF),))

        for step, drop in zip(steps, drops):
            if step == "push" and to_push:
                a = to_push.pop(0)
                q.push(a)
                live.append(a)
            elif step == "pick":
                for naive, view in views():
                    assert (sched.pick_banked(view, channel, 0)
                            is bliss_pick(sched, naive, channel, 0))
                a = sched.pick_banked(q.classes, channel, 0)
                if a is None:
                    continue
                q.remove(a)
                live.remove(a)
                channel.issue(a.rank, a.bank, a.row, a.is_write, 0)
                sched.on_served(a.core_id)
                if a.priority == Priority.PR:
                    rrpc.on_priority_read(a.global_bank)
            elif step == "drop" and live:
                a = live.pop(drop % len(live))
                q.remove(a)
            q.check_invariants()
        assert list(q) == sorted(live, key=lambda a: a.seq)


class TestScheduleAllHysteresis:
    """Paper §IV: ScheduleAll turns on when occupancy *exceeds* 85 % and
    off when it *falls below* 75 % — both comparisons are strict, so
    landing exactly on a threshold changes nothing."""

    def build(self, tiny_cfg, capacity=20):
        ctrl = make_controller("DCA", Simulator(), tiny_cfg, use_mapi=False)
        # Replace channel 0's read queue with one whose capacity puts the
        # 0.85 / 0.75 thresholds on representable occupancies:
        # 17/20 == 0.85 exactly, 15/20 == 0.75 exactly.
        ctrl.read_q[0] = AccessQueue(capacity)
        assert ctrl.cfg.queues.lr_drain_high == pytest.approx(0.85)
        assert ctrl.cfg.queues.lr_drain_low == pytest.approx(0.75)
        return ctrl

    def fill(self, ctrl, n):
        rq = ctrl.read_q[0]
        while len(rq) > n:
            rq.remove(list(rq)[-1])
        while len(rq) < n:
            req = CacheRequest(RequestType.WRITEBACK, 0, 0)
            rq.push(Access(AccessRole.TAG_READ, req, (0, 0, 0, 0, 0, 0),
                           seq=next_seq()))

    def test_exactly_at_high_watermark_stays_off(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 17)               # occupancy == lr_drain_high
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]

    def test_above_high_watermark_turns_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 18)               # 0.90 > 0.85
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]

    def test_exactly_at_low_watermark_stays_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.schedule_all[0] = True
        self.fill(ctrl, 15)               # occupancy == lr_drain_low
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]

    def test_below_low_watermark_turns_off(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.schedule_all[0] = True
        self.fill(ctrl, 14)               # 0.70 < 0.75
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]

    def test_hysteresis_band_is_sticky_both_ways(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 16)               # 0.80: inside the band
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]   # off stays off
        ctrl.schedule_all[0] = True
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]       # on stays on

    def test_draining_forces_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.draining = True
        self.fill(ctrl, 0)
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]
