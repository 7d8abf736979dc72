"""Access / CacheRequest vocabulary semantics (paper Fig. 2 taxonomy)."""

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.translator import Translator
from repro.config import DRAMCacheGeometry, DRAMOrganization
from repro.core.access import (
    NO_COORDS,
    Access,
    AccessRole,
    CacheRequest,
    Priority,
    RequestType,
)
from repro.dram.address import AddressMapper

from reference import next_seq


def mk(role, rtype):
    req = CacheRequest(rtype, 0x1000, core_id=2, pc=0x44)
    return Access(role, req, (1, 0, 3, 7, 5, 19), seq=next_seq()), req


class TestPriorityTaxonomy:
    def test_read_request_tag_read_is_pr(self):
        a, _ = mk(AccessRole.TAG_READ, RequestType.READ)
        assert a.priority == Priority.PR

    def test_read_request_data_read_is_pr(self):
        a, _ = mk(AccessRole.DATA_READ, RequestType.READ)
        assert a.priority == Priority.PR

    def test_writeback_tag_read_is_lr(self):
        a, _ = mk(AccessRole.TAG_READ, RequestType.WRITEBACK)
        assert a.priority == Priority.LR

    def test_refill_tag_read_is_lr(self):
        """Paper §IV-B: refills count as cache-write requests -> LR."""
        a, _ = mk(AccessRole.TAG_READ, RequestType.REFILL)
        assert a.priority == Priority.LR

    def test_writes_are_write_class(self):
        for role in (AccessRole.TAG_WRITE, AccessRole.DATA_WRITE):
            for rt in RequestType:
                a, _ = mk(role, rt)
                assert a.priority == Priority.WRITE

    def test_victim_data_read_of_writeback_is_lr(self):
        a, _ = mk(AccessRole.DATA_READ, RequestType.WRITEBACK)
        assert a.priority == Priority.LR


class TestBusDirection:
    def test_reads(self):
        for role in (AccessRole.TAG_READ, AccessRole.DATA_READ):
            a, _ = mk(role, RequestType.READ)
            assert a.is_write is False

    def test_writes(self):
        for role in (AccessRole.TAG_WRITE, AccessRole.DATA_WRITE):
            a, _ = mk(role, RequestType.READ)
            assert a.is_write is True


class TestBookkeeping:
    def test_seq_monotonic(self):
        """Ages come from each Translator's own counter: monotone within
        one system, untouched by accesses another system builds."""
        def translator():
            array = DRAMCacheArray(DRAMCacheGeometry(size_bytes=2**20), "sa")
            return Translator(array, AddressMapper(DRAMOrganization()))

        one, two = translator(), translator()
        req = CacheRequest(RequestType.READ, 0x1000, core_id=0)
        a1 = one.initial_access(req)
        b1 = two.initial_access(req)
        a2 = one.initial_access(req)
        assert a2.seq > a1.seq
        assert b1.seq == a1.seq

    def test_core_id_proxied(self):
        a, req = mk(AccessRole.TAG_READ, RequestType.READ)
        assert a.core_id == req.core_id == 2

    def test_coordinates_stored(self):
        a, _ = mk(AccessRole.TAG_READ, RequestType.READ)
        assert (a.channel, a.rank, a.bank, a.row) == (1, 0, 3, 7)
        assert a.global_bank == 19

    def test_request_is_read(self):
        for rtype in RequestType:
            assert CacheRequest(rtype, 0, 0).rtype is rtype

    def test_request_initial_state(self):
        r = CacheRequest(RequestType.READ, 0, 0)
        assert r.hit is None
        assert r.done_time == -1
        assert r.accesses_left == 0
        assert r.tag_coords == NO_COORDS
        assert not (r.pred_miss or r.probing or r.mem_data_ready)
        assert r.pending_writes is None and r.victim_addr is None
