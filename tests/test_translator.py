"""Request -> access translation (the paper's Fig. 2 sequences)."""

import random

import pytest

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.translator import Translator
from repro.config import INTERLEAVE_POLICIES, DRAMCacheGeometry, DRAMOrganization
from repro.core.access import AccessRole, CacheRequest, Priority, RequestType
from repro.dram.address import AddressMapper

GEOM = DRAMCacheGeometry(size_bytes=2 * 2**20)


def make(orgn):
    array = DRAMCacheArray(GEOM, orgn)
    mapper = AddressMapper(DRAMOrganization())
    return array, Translator(array, mapper)


def read_req(addr=0x4000):
    return CacheRequest(RequestType.READ, addr, core_id=0, pc=0x400100)


def wb_req(addr=0x4000):
    return CacheRequest(RequestType.WRITEBACK, addr, core_id=0)


def refill_req(addr=0x4000):
    return CacheRequest(RequestType.REFILL, addr, core_id=0)


def tag_read_done(tr, req):
    """Build ``req``'s tag read, then resolve it as on its completion."""
    tr.initial_access(req)
    return tr.after_tag_read(req)


class TestSetAssociativeRead:
    def test_initial_is_tag_read(self):
        _, tr = make("sa")
        acc = tr.initial_access(read_req())
        assert acc.role == AccessRole.TAG_READ
        assert acc.priority == Priority.PR

    def test_hit_generates_data_read_and_tag_write(self):
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        out = tag_read_done(tr, read_req())
        assert out.hit
        roles = [a.role for a in out.next_accesses]
        assert roles == [AccessRole.DATA_READ, AccessRole.TAG_WRITE]

    def test_hit_accesses_total_three(self):
        """Paper Fig. 2: a SA read hit is RTr + RDr + WTr."""
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        assert tr.accesses_per_read_hit() == 3

    def test_data_read_critical_tag_write_not(self):
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        out = tag_read_done(tr, read_req())
        data, tagw = out.next_accesses
        assert data.critical and not tagw.critical

    def test_miss_requests_memory_fetch(self):
        _, tr = make("sa")
        out = tag_read_done(tr, read_req())
        assert not out.hit
        assert out.next_accesses == []

    def test_tag_and_data_same_channel(self):
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        req = read_req()
        rt = tr.initial_access(req)
        out = tr.after_tag_read(req)
        assert all(a.channel == rt.channel for a in out.next_accesses)


class TestSetAssociativeWriteback:
    def test_hit_generates_two_writes(self):
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        out = tag_read_done(tr, wb_req())
        assert out.hit
        roles = [a.role for a in out.next_accesses]
        assert roles == [AccessRole.DATA_WRITE, AccessRole.TAG_WRITE]
        assert out.victim_read is None

    def test_miss_clean_victim_no_extra_read(self):
        _, tr = make("sa")
        out = tag_read_done(tr, wb_req())
        assert not out.hit
        assert out.victim_read is None
        assert out.victim_mem_write is None
        assert len(out.next_accesses) == 2

    def test_miss_dirty_victim_needs_data_read(self):
        """Paper Fig. 2: RDw required when the victim's dirty flag is set."""
        array, tr = make("sa")
        base = 0x4000
        set_idx = array.sa.set_index(base // 64)
        # Fill the whole set dirty so the allocation must evict dirty data.
        for t in range(15):
            array.fill(array.sa.block_addr(set_idx, t) * 64, dirty=True)
        new_addr = array.sa.block_addr(set_idx, 20) * 64
        out = tag_read_done(tr, wb_req(new_addr))
        assert not out.hit
        assert out.victim_read is not None
        assert out.victim_read.role == AccessRole.DATA_READ
        assert out.victim_mem_write is not None

    def test_wb_tag_read_is_low_priority(self):
        _, tr = make("sa")
        acc = tr.initial_access(wb_req())
        assert acc.priority == Priority.LR

    def test_refill_identical_shape_to_writeback(self):
        """Paper: 'this translation is identical to the write request'."""
        _, tr1 = make("sa")
        _, tr2 = make("sa")
        out_wb = tag_read_done(tr1, wb_req())
        out_rf = tag_read_done(tr2, refill_req())
        assert ([a.role for a in out_wb.next_accesses]
                == [a.role for a in out_rf.next_accesses])

    def test_refill_inserts_clean_writeback_dirty(self):
        array1, tr1 = make("sa")
        tag_read_done(tr1, wb_req(0x4000))
        assert array1.probe(0x4000).dirty
        array2, tr2 = make("sa")
        tag_read_done(tr2, refill_req(0x4000))
        assert not array2.probe(0x4000).dirty


class TestDirectMapped:
    def test_read_hit_single_access(self):
        """Alloy: tag+data in one burst, so a read hit is ONE access."""
        array, tr = make("dm")
        array.fill(0x4000, dirty=False)
        out = tag_read_done(tr, read_req())
        assert out.hit
        assert out.next_accesses == []
        assert tr.accesses_per_read_hit() == 1

    def test_writeback_two_accesses(self):
        array, tr = make("dm")
        array.fill(0x4000, dirty=False)
        out = tag_read_done(tr, wb_req())
        assert [a.role for a in out.next_accesses] == [AccessRole.DATA_WRITE]
        assert tr.accesses_per_writeback_hit() == 2

    def test_dirty_victim_no_extra_read(self):
        """DM: victim data arrived with the TAD read — no RDw."""
        array, tr = make("dm")
        conflict = array.dm.num_entries * 64  # same entry, other tag
        array.fill(conflict, dirty=True)
        out = tag_read_done(tr, wb_req(0x0))
        assert not out.hit
        assert out.victim_read is None
        assert out.victim_mem_write == conflict


class TestRequestHitState:
    def test_hit_recorded_on_request(self):
        array, tr = make("sa")
        array.fill(0x4000, dirty=False)
        req = read_req()
        assert req.hit is None
        tag_read_done(tr, req)
        assert req.hit is True


def without_col(coords):
    """(channel, rank, bank, row, global_bank) of a coordinates tuple."""
    channel, rank, bank, row, _col, gb = coords
    return channel, rank, bank, row, gb


class TestSharedCoordinates:
    """A request's accesses reuse its tag read's coordinates; that is exact
    only because a set's tag and data blocks decode to one DRAM row."""

    @pytest.mark.parametrize("xor_remap", [False, True])
    @pytest.mark.parametrize("interleave", INTERLEAVE_POLICIES)
    @pytest.mark.parametrize("orgn", ["sa", "dm"])
    def test_set_blocks_share_coordinates(self, orgn, interleave, xor_remap):
        array = DRAMCacheArray(GEOM, orgn)
        mapper = AddressMapper(DRAMOrganization(interleave=interleave,
                                                ranks_per_channel=2),
                               xor_remap=xor_remap)
        n = array.sa.num_sets if orgn == "sa" else array.dm.num_entries
        sets = random.Random(1).sample(range(n), 200) + [0, 1, n - 1]
        for s in sets:
            tag = array.tag_location_of_set(s)
            want = without_col(mapper.coordinates(tag))
            for off in array.data_offsets:
                assert without_col(mapper.coordinates(tag + off)) == want

    def test_follow_on_accesses_take_the_tag_coordinates(self):
        array, tr = make("sa")
        addr = 0x4000
        array.fill(addr, dirty=False)
        req = read_req(addr)
        tag = tr.initial_access(req)
        data, tagw = tr.after_tag_read(req).next_accesses
        way = array.lookup_read(addr).way
        decoded = without_col(tr.mapper.coordinates(
            array.data_location(addr, way)))
        for a in (tag, data, tagw):
            assert (a.channel, a.rank, a.bank, a.row, a.global_bank) == decoded

    def test_layout_splitting_a_set_is_rejected(self):
        array = DRAMCacheArray(GEOM, "sa")
        with pytest.raises(ValueError, match="spans two 512-byte DRAM rows"):
            Translator(array, AddressMapper(DRAMOrganization(row_bytes=512)))
        # Direct-mapped sets are one TAD block: any row size holds them.
        Translator(DRAMCacheArray(GEOM, "dm"),
                   AddressMapper(DRAMOrganization(row_bytes=512)))
