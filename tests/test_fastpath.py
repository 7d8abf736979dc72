"""Indexed scheduling fast path: bit-identity with the naive scan path,
and DCA ScheduleAll hysteresis boundary pinning.

The fast path (``AccessQueue`` bank buckets + ``pick_banked`` +
``DCAController._ofs_buckets``) must select exactly the access the naive
reference selectors in ``reference.py`` (``bliss_pick`` over flat
candidate lists, ``ofs_naive_candidates``) would.  ``Access.seq`` is
globally unique and the
final tiebreak of every policy, so the argmin is unique — these tests
pin that equivalence over randomized queue states, bank states,
blacklists and RRPC states.
"""

from __future__ import annotations

import random

import pytest

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

from reference import bliss_pick, ofs_naive_candidates

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
        q.push(Access(role, req, 0, rank, bank, rng.randrange(8), 0, gb, 0))
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
        assert (bliss_pick(s, list(q.entries), channel, 0)
                is s.pick_banked(q.bank_buckets(), channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_bliss_pr_partition(self, seed):
        rng = random.Random(100 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65))
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        naive = [a for a in q.entries if a.priority == Priority.PR]
        assert (bliss_pick(s, naive, channel, 0)
                is s.pick_banked(q.pr_bank_buckets(), channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_frfcfs_full_queue(self, seed):
        rng = random.Random(200 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65), writes=True)
        s = FRFCFSScheduler(BLISSConfig(), NUM_CORES)
        assert (bliss_pick(s, list(q.entries), channel, 0)
                is s.pick_banked(q.bank_buckets(), channel, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_drain_order_identical(self, seed):
        """Pick+remove until empty: the full issue order matches, which
        also exercises swap-pop / bucket maintenance between picks."""
        rng = random.Random(300 + seed)
        q, channel = random_state(rng, 40)
        naive_pool = list(q.entries)
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        s.blacklist[2] = True
        order_naive, order_indexed = [], []
        while naive_pool:
            a = bliss_pick(s, naive_pool, channel, 0)
            naive_pool.remove(a)
            order_naive.append(a)
        while q.entries:
            a = s.pick_banked(q.bank_buckets(), channel, 0)
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
            rq.push(Access(AccessRole.TAG_READ, req, 0, rank, bank,
                           rng.randrange(8), 0, gb, 0))
        naive = ofs_naive_candidates(rq.entries, channel, ctrl.rrpc,
                                     ctrl.cfg.dca.flushing_factor)
        buckets = ctrl._ofs_buckets(0)
        flat = [a for bucket in buckets.values() for a in bucket]
        assert set(flat) == set(naive)
        assert len(flat) == len(naive)
        for gb, bucket in buckets.items():
            assert all(a.global_bank == gb for a in bucket)
        # ... and the resulting pick is the same access.
        sched = ctrl.sched[0]
        assert (bliss_pick(sched, naive, channel, 0)
                is sched.pick_banked(buckets, channel, 0))


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
        pool = list(q.entries)
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
            return Access(role, req, 0, rank, bank, rng.randrange(8), 0, gb, 0)

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

        def indexed_buckets():
            if mode == "pr_subset":
                return q.pr_bank_buckets()
            if mode == "dca_ofs":
                return ofs_bucket_filter(q.lr_bank_buckets(),
                                         channel.open_rows, rrpc, OFS_FF)
            return q.bank_buckets()

        picked = 0
        for step in range(self.STEPS):
            repl = replacements()
            a = bliss_pick(sched, naive_candidates(), channel, 0)
            assert sched.pick_banked(indexed_buckets(), channel, 0) is a, (
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
            rq.remove(rq.entries[-1])
        while len(rq) < n:
            req = CacheRequest(RequestType.WRITEBACK, 0, 0)
            rq.push(Access(AccessRole.TAG_READ, req, 0, 0, 0, 0, 0, 0, 0))

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
