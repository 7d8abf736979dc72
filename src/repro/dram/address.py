"""Address interleaving for a DRAM level (stacked cache or off-chip).

The paper (Table II) uses **RoBaRaChCo** interleaving: reading the physical
array address from most-significant to least-significant bits gives

    | row | bank | rank | channel | column | block offset |

i.e. consecutive blocks walk columns within one row of one bank, consecutive
rows rotate across channels first, then ranks, then banks.  This spreads a
sequential stream across channels at row granularity while keeping row-buffer
locality within a channel.

Two layouts are shipped (``DRAMOrganization.interleave``, sweepable as
``org.interleave=robarachco,chxor``):

* ``robarachco`` — the default above;
* ``chxor`` — RoBaRaChCo with the channel index XOR-folded with the low
  row bits (permutation channel hashing, self-inverse): strided streams
  that would camp on one channel scatter across all of them.

The optional **XOR permutation remapping** implements Zhang, Zhu & Zhang
(MICRO'00): the bank index is XORed with the low bits of the row index, so
two addresses that fall in the *same bank but different rows* (a row-buffer
conflict) are scattered to *different banks*.  The paper adds this scheme to
all controller designs in its Fig. 9 experiment because it mitigates
read-read conflicts (RRC) the same way it mitigates read-write conflicts in
conventional DRAM.  It is orthogonal to ``chxor`` (it permutes the bank
field, ``chxor`` the channel field).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import DRAMOrganization


class DecodedAddress(NamedTuple):
    """A fully decoded DRAM coordinate.

    ``col`` is in units of cache blocks (64 B) within the row.  The
    flattened (channel, rank, bank) index is
    :meth:`AddressMapper.global_bank` (or ``coordinates()[5]``).
    """

    channel: int
    rank: int
    bank: int
    row: int
    col: int


class AddressMapper:
    """Maps byte addresses in a DRAM array to (channel, rank, bank, row, col).

    Parameters
    ----------
    org:
        DRAM geometry (channels/ranks/banks/row size/block size) plus the
        interleave policy name; geometry validity is enforced by
        :class:`~repro.config.DRAMOrganization` itself at construction.
    xor_remap:
        Enable the permutation-based bank remapping (Zhang et al.).
    """

    __slots__ = ("org", "xor_remap",
                 "_col_mask", "_ch_mask", "_ra_mask", "_ba_mask",
                 "_col_shift", "_ch_shift", "_ra_shift", "_ba_shift",
                 "_row_shift", "_ch_xor", "_banks_per_rank", "_banks_per_ch")

    def __init__(self, org: DRAMOrganization, xor_remap: bool = False):
        self.org = org
        self.xor_remap = xor_remap

        self._col_mask = org.blocks_per_row - 1
        self._ch_mask = org.channels - 1
        self._ra_mask = org.ranks_per_channel - 1
        self._ba_mask = org.banks_per_rank - 1

        # Bit offsets from LSB: block offset, column, channel, rank,
        # bank, row on top.  Decode/encode stay straight-line integer
        # arithmetic over these precomputed shifts.
        self._col_shift = (org.block_bytes - 1).bit_length()
        self._ch_shift = self._col_shift + self._col_mask.bit_length()
        self._ra_shift = self._ch_shift + self._ch_mask.bit_length()
        self._ba_shift = self._ra_shift + self._ra_mask.bit_length()
        self._row_shift = self._ba_shift + self._ba_mask.bit_length()
        self._ch_xor = org.interleave == "chxor"
        self._banks_per_rank = org.banks_per_rank
        self._banks_per_ch = org.ranks_per_channel * org.banks_per_rank

    def coordinates(self, addr: int) -> tuple[int, int, int, int, int, int]:
        """``(channel, rank, bank, row, col, global_bank)`` of a byte
        address, as a plain tuple: the one bit-slicing routine, which
        :meth:`decode` wraps and the translator calls per access."""
        if addr < 0:
            raise ValueError(f"negative address: {addr}")
        col = (addr >> self._col_shift) & self._col_mask
        channel = (addr >> self._ch_shift) & self._ch_mask
        rank = (addr >> self._ra_shift) & self._ra_mask
        bank = (addr >> self._ba_shift) & self._ba_mask
        row = addr >> self._row_shift
        if self._ch_xor:
            channel ^= row & self._ch_mask
        if self.xor_remap:
            bank ^= row & self._ba_mask
        return (channel, rank, bank, row, col,
                channel * self._banks_per_ch + rank * self._banks_per_rank
                + bank)

    def decode(self, addr: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates."""
        return DecodedAddress(*self.coordinates(addr)[:5])

    def encode(self, d: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (useful in tests; bijective per channel)."""
        bank = d.bank
        if self.xor_remap:
            bank ^= d.row & self._ba_mask
        channel = d.channel
        if self._ch_xor:
            channel ^= d.row & self._ch_mask
        return ((d.row << self._row_shift)
                | (bank << self._ba_shift)
                | (d.rank << self._ra_shift)
                | (channel << self._ch_shift)
                | (d.col << self._col_shift))

    def global_bank(self, d: DecodedAddress) -> int:
        """Flatten (channel, rank, bank) to one index in [0, total_banks);
        :meth:`coordinates` returns the same flattening."""
        return (d.channel * self._banks_per_ch
                + d.rank * self._banks_per_rank + d.bank)

    def row_of(self, addr: int) -> int:
        """Fast row extraction without building a tuple."""
        return addr >> self._row_shift
