"""Interleaved address mapping (robarachco, chxor) and the XOR
permutation remapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import INTERLEAVE_POLICIES, DRAMOrganization
from repro.dram.address import AddressMapper, DecodedAddress


@pytest.fixture
def mapper():
    return AddressMapper(DRAMOrganization())


@pytest.fixture
def xor_mapper():
    return AddressMapper(DRAMOrganization(), xor_remap=True)


class TestLayout:
    def test_block_offset_ignored(self, mapper):
        assert mapper.decode(0) == mapper.decode(63)

    def test_consecutive_blocks_same_row(self, mapper):
        """Columns are the lowest field: blocks walk within one row."""
        d0 = mapper.decode(0)
        d1 = mapper.decode(64)
        assert d1.col == d0.col + 1
        assert (d1.channel, d1.bank, d1.row) == (d0.channel, d0.bank, d0.row)

    def test_consecutive_rows_rotate_channels(self, mapper):
        """After the column field comes the channel field."""
        row_bytes = 4096
        d0 = mapper.decode(0)
        d1 = mapper.decode(row_bytes)
        assert d1.channel == d0.channel + 1
        assert d1.bank == d0.bank

    def test_banks_after_channels(self, mapper):
        row_bytes, channels = 4096, 4
        d = mapper.decode(row_bytes * channels)
        assert d.channel == 0
        assert d.bank == 1

    def test_row_after_banks(self, mapper):
        row_bytes, channels, banks = 4096, 4, 16
        d = mapper.decode(row_bytes * channels * banks)
        assert (d.channel, d.bank) == (0, 0)
        assert d.row == 1

    def test_row_of_matches_decode(self, mapper):
        for addr in (0, 4096, 123456789, 2**30 + 4242):
            assert mapper.row_of(addr) == mapper.decode(addr).row

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)


class TestGlobalBank:
    def test_range(self, mapper):
        org = DRAMOrganization()
        seen = set()
        for addr in range(0, 4096 * 64 * 4, 4096):
            d = mapper.decode(addr)
            gb = mapper.global_bank(d)
            assert 0 <= gb < org.total_banks
            seen.add(gb)
        assert len(seen) == org.total_banks  # all banks reachable

    def test_distinct_per_channel_bank(self, mapper):
        d1 = DecodedAddress(0, 0, 3, 0, 0)
        d2 = DecodedAddress(1, 0, 3, 0, 0)
        assert mapper.global_bank(d1) != mapper.global_bank(d2)


class TestValidation:
    def test_non_power_of_two_channels(self):
        with pytest.raises(ValueError):
            AddressMapper(DRAMOrganization(channels=3))

    def test_non_power_of_two_banks(self):
        with pytest.raises(ValueError):
            AddressMapper(DRAMOrganization(banks_per_rank=10))


class TestInterleavePolicies:
    """The two bit-slicings over the same decode/encode core."""

    def test_default_policy_is_robarachco(self, mapper):
        explicit = AddressMapper(DRAMOrganization(interleave="robarachco"))
        for addr in (0, 4096, 123456789, 2**30 + 4242):
            assert mapper.decode(addr) == explicit.decode(addr)

    def test_robarachco_rank_between_channel_and_bank(self):
        """LSB->MSB: col, ch, ra, ba, row (the paper's stacked layout)."""
        org = DRAMOrganization(ranks_per_channel=2)
        m = AddressMapper(org)
        row_bytes, channels, ranks = 4096, 4, 2
        d = m.decode(row_bytes * channels)
        assert (d.channel, d.rank, d.bank) == (0, 1, 0)
        d = m.decode(row_bytes * channels * ranks)
        assert (d.channel, d.rank, d.bank) == (0, 0, 1)

    def test_chxor_scatters_same_channel_rows(self):
        """Rows that pile onto one channel spread across all channels."""
        plain = AddressMapper(DRAMOrganization())
        xor = AddressMapper(DRAMOrganization(interleave="chxor"))
        row_stride = 4096 * 4 * 16   # same channel/bank, next row
        ch_plain = {plain.decode(i * row_stride).channel for i in range(4)}
        ch_xor = {xor.decode(i * row_stride).channel for i in range(4)}
        assert len(ch_plain) == 1
        assert len(ch_xor) == 4

    def test_chxor_keeps_row_bank_col(self):
        plain = AddressMapper(DRAMOrganization())
        xor = AddressMapper(DRAMOrganization(interleave="chxor"))
        for addr in (0, 8192, 12345600, 2**28):
            p, x = plain.decode(addr), xor.decode(addr)
            assert (p.row, p.rank, p.bank, p.col) == (x.row, x.rank,
                                                      x.bank, x.col)

    def test_row_of_is_policy_independent(self):
        """Rows sit above every sliced field, so row_of never depends on
        the policy — the Lee writeback index relies on this."""
        mappers = [AddressMapper(DRAMOrganization(ranks_per_channel=2,
                                                  interleave=name))
                   for name in INTERLEAVE_POLICIES]
        for addr in (0, 4096, 987654321, 2**31 + 64):
            rows = {m.row_of(addr) for m in mappers}
            assert len(rows) == 1

    @given(st.integers(min_value=0, max_value=2**40),
           st.sampled_from(INTERLEAVE_POLICIES),
           st.sampled_from([1, 2, 4]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bijective_across_policies_and_ranks(self, addr, policy,
                                                 ranks, remap):
        """encode(decode(x)) == x for every policy x rank-count x remap."""
        org = DRAMOrganization(ranks_per_channel=ranks, interleave=policy)
        m = AddressMapper(org, xor_remap=remap)
        addr &= ~63
        assert m.encode(m.decode(addr)) == addr

    @given(st.integers(min_value=0, max_value=2**40),
           st.sampled_from(INTERLEAVE_POLICIES))
    @settings(max_examples=200, deadline=None)
    def test_decode_fields_in_range_all_policies(self, addr, policy):
        org = DRAMOrganization(ranks_per_channel=2, interleave=policy)
        d = AddressMapper(org).decode(addr)
        assert 0 <= d.channel < org.channels
        assert 0 <= d.rank < org.ranks_per_channel
        assert 0 <= d.bank < org.banks_per_rank
        assert 0 <= d.col < org.blocks_per_row


class TestXORRemap:
    def test_same_row_same_bank(self, xor_mapper):
        """Remap must keep blocks of one row together."""
        d0 = xor_mapper.decode(0)
        d1 = xor_mapper.decode(64)
        assert (d1.channel, d1.bank, d1.row) == (d0.channel, d0.bank, d0.row)

    def test_scatters_same_bank_rows(self):
        """Two rows that collide on a bank without remapping spread out."""
        plain = AddressMapper(DRAMOrganization())
        xor = AddressMapper(DRAMOrganization(), xor_remap=True)
        row_stride = 4096 * 4 * 16  # same channel, same bank, next row
        banks_plain = {plain.decode(i * row_stride).bank for i in range(16)}
        banks_xor = {xor.decode(i * row_stride).bank for i in range(16)}
        assert len(banks_plain) == 1
        assert len(banks_xor) == 16  # permutation spreads across all banks

    def test_row_channel_unchanged(self, mapper, xor_mapper):
        for addr in (0, 8192, 12345600, 2**28):
            p, x = mapper.decode(addr), xor_mapper.decode(addr)
            assert p.row == x.row
            assert p.channel == x.channel
            assert p.col == x.col

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_bijective_within_row_space(self, addr):
        """encode(decode(x)) recovers the block address (both mappers)."""
        addr &= ~63
        for remap in (False, True):
            m = AddressMapper(DRAMOrganization(), xor_remap=remap)
            assert m.encode(m.decode(addr)) == addr


@given(st.integers(min_value=0, max_value=2**40), st.booleans())
@settings(max_examples=200, deadline=None)
def test_decode_fields_in_range(addr, remap):
    org = DRAMOrganization()
    m = AddressMapper(org, xor_remap=remap)
    d = m.decode(addr)
    assert 0 <= d.channel < org.channels
    assert 0 <= d.rank < org.ranks_per_channel
    assert 0 <= d.bank < org.banks_per_rank
    assert 0 <= d.col < org.blocks_per_row
    assert d.row >= 0


@given(st.integers(min_value=0, max_value=2**34))
@settings(max_examples=100, deadline=None)
def test_remap_is_permutation_of_banks(addr):
    """For any address set sharing (channel,row), remap is a bijection."""
    org = DRAMOrganization()
    m = AddressMapper(org, xor_remap=True)
    # Bank field sits at bits 14..17 (6 block + 6 col + 2 channel bits).
    base = addr & ~(0xF << 14)
    banks = set()
    for bank_sel in range(org.banks_per_rank):
        a = base | (bank_sel << 14)
        banks.add(m.decode(a).bank)
    assert len(banks) == org.banks_per_rank


class TestEncodeDecodeRoundTrip:
    """Property round-trips in *both* directions (snapshot layer relies on
    the mapping being a pure bijection: restored runs re-derive access
    coordinates and must land on the identical banks/rows)."""

    coords = st.tuples(
        st.integers(min_value=0, max_value=3),      # channel
        st.integers(min_value=0, max_value=0),      # rank (1 per channel)
        st.integers(min_value=0, max_value=15),     # bank
        st.integers(min_value=0, max_value=2**22),  # row
        st.integers(min_value=0, max_value=63),     # col
    )

    @given(coords, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_decode_of_encode_recovers_coordinates(self, coord, remap):
        org = DRAMOrganization()
        m = AddressMapper(org, xor_remap=remap)
        d = DecodedAddress(*coord)
        assert m.decode(m.encode(d)) == d

    multirank_coords = st.tuples(
        st.integers(min_value=0, max_value=3),      # channel
        st.integers(min_value=0, max_value=1),      # rank (2 per channel)
        st.integers(min_value=0, max_value=15),     # bank
        st.integers(min_value=0, max_value=2**22),  # row
        st.integers(min_value=0, max_value=63),     # col
    )

    @given(multirank_coords, st.sampled_from(INTERLEAVE_POLICIES))
    @settings(max_examples=200, deadline=None)
    def test_decode_of_encode_multirank_all_policies(self, coord, policy):
        org = DRAMOrganization(ranks_per_channel=2, interleave=policy)
        m = AddressMapper(org)
        d = DecodedAddress(*coord)
        assert m.decode(m.encode(d)) == d

    @given(coords)
    @settings(max_examples=100, deadline=None)
    def test_global_bank_flattening_is_injective(self, coord):
        org = DRAMOrganization()
        m = AddressMapper(org)
        d = DecodedAddress(*coord)
        gb = m.global_bank(d)
        per_ch = org.ranks_per_channel * org.banks_per_rank
        assert 0 <= gb < org.total_banks
        # channel-local bank index recovery used by the schedulers'
        # bucket fast path (global_bank % banks-per-channel)
        assert gb % per_ch == d.rank * org.banks_per_rank + d.bank
        assert gb // per_ch == d.channel

    @given(st.integers(min_value=0, max_value=2**40), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_row_of_is_stable_under_round_trip(self, addr, remap):
        m = AddressMapper(DRAMOrganization(), xor_remap=remap)
        addr &= ~63
        assert m.row_of(m.encode(m.decode(addr))) == m.row_of(addr)
