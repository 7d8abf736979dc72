"""Controller integration: routing, priorities, flushing, request flow.

These tests drive controllers directly (no cores/L2): submit requests,
run the engine, and inspect queue routing, access classes, completion
callbacks and design-specific scheduling behavior.
"""

import pytest

from repro.core import CDController, DCAController, RODController, make_controller
from repro.core.access import CacheRequest, RequestType
from repro.sim.engine import Simulator

from reference import low_priority_reads, priority_reads


def build(design, tiny_cfg, **kw):
    sim = Simulator()
    ctrl = make_controller(design, sim, tiny_cfg, organization=kw.pop("organization", "sa"), **kw)
    return sim, ctrl


def submit_and_run(sim, ctrl, reqs, until=None):
    done = []
    for r in reqs:
        r.on_done = lambda req: done.append(req)
        ctrl.submit(r)
    sim.run(until=until)
    # The passive write policy parks residual writes below the low
    # watermark; drain them so tests can assert on full completion.
    ctrl.flush_all()
    sim.run(until=until)
    return done


class TestFactory:
    def test_designs(self, tiny_cfg):
        sim = Simulator()
        assert isinstance(make_controller("cd", sim, tiny_cfg), CDController)
        assert isinstance(make_controller("ROD", sim, tiny_cfg), RODController)
        assert isinstance(make_controller("DcA", sim, tiny_cfg), DCAController)

    def test_unknown_design(self, tiny_cfg):
        with pytest.raises(ValueError):
            make_controller("FRFCFS++", Simulator(), tiny_cfg)

    def test_rod_queue_sizes_applied(self, tiny_cfg):
        _, ctrl = build("ROD", tiny_cfg)
        assert ctrl.read_q[0].capacity == 32
        assert ctrl.write_q[0].capacity == 96

    def test_cd_queue_sizes(self, tiny_cfg):
        _, ctrl = build("CD", tiny_cfg)
        assert ctrl.read_q[0].capacity == 64
        assert ctrl.write_q[0].capacity == 64


class TestReadRequestFlow:
    def test_read_miss_completes_via_memory(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        req = CacheRequest(RequestType.READ, 0x4000, 0)
        done = submit_and_run(sim, ctrl, [req])
        assert done == [req]
        assert req.hit is False
        assert ctrl.stats.read_misses == 1
        assert ctrl.mainmem.stats.reads == 1

    def test_read_miss_spawns_refill(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        req = CacheRequest(RequestType.READ, 0x4000, 0)
        submit_and_run(sim, ctrl, [req])
        assert ctrl.stats.refills_submitted == 1
        assert ctrl.array.probe(0x4000).hit   # refill landed

    def test_read_hit_after_refill(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        r1 = CacheRequest(RequestType.READ, 0x4000, 0)
        submit_and_run(sim, ctrl, [r1])
        r2 = CacheRequest(RequestType.READ, 0x4000, 0)
        done = submit_and_run(sim, ctrl, [r2])
        assert done == [r2]
        assert r2.hit is True
        assert ctrl.stats.read_hits == 1

    def test_latency_accounting(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        req = CacheRequest(RequestType.READ, 0x4000, 0)
        submit_and_run(sim, ctrl, [req])
        assert ctrl.stats.reads_done == 1
        assert ctrl.stats.mean_read_latency_ps > 0
        assert req.done_time >= req.arrival

    def test_mapi_predicted_miss_probes_memory_early(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=True)
        req = CacheRequest(RequestType.READ, 0x4000, 0, pc=0x100)
        submit_and_run(sim, ctrl, [req])
        # Cold MAP-I predicts miss: memory fetch launched at submit.
        assert req.pred_miss is True
        assert ctrl.stats.memory_fetches >= 1

    def test_dm_read_hit_single_access(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, organization="dm", use_mapi=False)
        ctrl.array.fill(0x4000, dirty=False)
        req = CacheRequest(RequestType.READ, 0x4000, 0)
        submit_and_run(sim, ctrl, [req])
        total = ctrl.device.total_stats().total_accesses
        assert total == 1      # one TAD read, nothing else
        assert req.hit is True


class TestWritebackFlow:
    def test_writeback_completes(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        done = submit_and_run(sim, ctrl, [wb])
        assert done == [wb]
        assert ctrl.array.probe(0x8000).dirty

    def test_writeback_access_count_sa(self, tiny_cfg):
        """SA writeback miss (clean victim): RT + WD + WT = 3 accesses."""
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        submit_and_run(sim, ctrl, [wb])
        assert ctrl.device.total_stats().total_accesses == 3

    def test_writeback_access_count_dm(self, tiny_cfg):
        """DM writeback: TAD read + TAD write = 2 accesses."""
        sim, ctrl = build("CD", tiny_cfg, organization="dm", use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        submit_and_run(sim, ctrl, [wb])
        assert ctrl.device.total_stats().total_accesses == 2

    def test_dirty_victim_written_to_memory(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        arr = ctrl.array
        set_idx = arr.sa.set_index(0x8000 // 64)
        for t in range(15):
            arr.fill(arr.sa.block_addr(set_idx, t) * 64, dirty=True)
        wb = CacheRequest(
            RequestType.WRITEBACK, arr.sa.block_addr(set_idx, 30) * 64, 0)
        submit_and_run(sim, ctrl, [wb])
        assert ctrl.stats.victim_mem_writes == 1
        assert ctrl.mainmem.stats.writes == 1


class TestForwarding:
    def test_read_forwarded_from_pending_writeback(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        rd = CacheRequest(RequestType.READ, 0x8000, 0)
        got = []
        rd.on_done = lambda r: got.append(r)
        ctrl.submit(wb)
        ctrl.submit(rd)   # while the writeback is still queued
        sim.run()
        assert got == [rd]
        assert ctrl.stats.forwarded_reads == 1
        assert rd.hit is True

    def test_forwarding_cleared_after_completion(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        submit_and_run(sim, ctrl, [wb])
        rd = CacheRequest(RequestType.READ, 0x8000, 0)
        submit_and_run(sim, ctrl, [rd])
        assert ctrl.stats.forwarded_reads == 0   # served by the array


class TestRouting:
    def test_cd_routes_by_access_type(self, tiny_cfg):
        sim, ctrl = build("CD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        ctrl.submit(wb)
        # The writeback's tag READ sits in the READ queue under CD.
        assert sum(len(q) for q in ctrl.read_q) == 1
        assert sum(len(q) for q in ctrl.write_q) == 0

    def test_rod_routes_by_request_type(self, tiny_cfg):
        sim, ctrl = build("ROD", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        ctrl.submit(wb)
        # Under ROD the same tag read belongs to the WRITE queue.
        assert sum(len(q) for q in ctrl.read_q) == 0
        assert sum(len(q) for q in ctrl.write_q) == 1

    def test_dca_routes_like_cd(self, tiny_cfg):
        sim, ctrl = build("DCA", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        ctrl.submit(wb)
        assert sum(len(q) for q in ctrl.read_q) == 1
        lrs = [a for q in ctrl.read_q for a in low_priority_reads(q)]
        assert len(lrs) == 1   # ... but classified LR

    def test_read_request_accesses_are_pr(self, tiny_cfg):
        sim, ctrl = build("DCA", tiny_cfg, use_mapi=False)
        rd = CacheRequest(RequestType.READ, 0x4000, 0)
        ctrl.submit(rd)
        prs = [a for q in ctrl.read_q for a in priority_reads(q)]
        assert len(prs) == 1


class TestDCASpecifics:
    def test_rrpc_updated_on_pr_issue(self, tiny_cfg):
        sim, ctrl = build("DCA", tiny_cfg, use_mapi=False)
        rd = CacheRequest(RequestType.READ, 0x4000, 0)
        submit_and_run(sim, ctrl, [rd])
        assert max(ctrl.rrpc.snapshot()) == 7   # some bank saw a PR

    def test_lr_held_until_ofs(self, tiny_cfg):
        """An LR whose bank row-conflicts with a recent PR bank is held."""
        sim, ctrl = build("DCA", tiny_cfg, use_mapi=False)
        wb = CacheRequest(RequestType.WRITEBACK, 0x8000, 0)
        done = submit_and_run(sim, ctrl, [wb])
        # With no PRs around, OFS drains it (row closed -> eligible).
        assert done == [wb]
        assert ctrl.stats.lr_ofs_issues >= 1

    def test_queues_drain_completely(self, tiny_cfg):
        sim, ctrl = build("DCA", tiny_cfg, use_mapi=False)
        reqs = [CacheRequest(RequestType.READ, 0x4000 + i * 64, i % 4)
                for i in range(20)]
        reqs += [CacheRequest(RequestType.WRITEBACK, 0x80000 + i * 64, i % 4)
                 for i in range(20)]
        done = submit_and_run(sim, ctrl, reqs)
        assert len(done) == 40
        assert ctrl.queues_empty()


class TestAllDesignsDrain:
    @pytest.mark.parametrize("design", ["CD", "ROD", "DCA"])
    @pytest.mark.parametrize("orgn", ["sa", "dm"])
    def test_mixed_burst_drains(self, tiny_cfg, design, orgn):
        sim, ctrl = build(design, tiny_cfg, organization=orgn, use_mapi=True)
        reqs = []
        for i in range(30):
            reqs.append(CacheRequest(RequestType.READ,
                                     0x10000 + i * 64, i % 4, pc=i * 8))
            reqs.append(CacheRequest(RequestType.WRITEBACK,
                                     0x90000 + i * 64, i % 4))
        done = submit_and_run(sim, ctrl, reqs)
        assert len(done) == 60
        assert ctrl.queues_empty()
        stats = ctrl.device.total_stats()
        assert stats.total_accesses > 0
