"""Address interleaving for a DRAM level (stacked cache or off-chip).

The paper (Table II) uses **RoBaRaChCo** interleaving: reading the physical
array address from most-significant to least-significant bits gives

    | row | bank | rank | channel | column | block offset |

i.e. consecutive blocks walk columns within one row of one bank, consecutive
rows rotate across channels first, then ranks, then banks.  This spreads a
sequential stream across channels at row granularity while keeping row-buffer
locality within a channel.

The bit-slicing is pluggable: an :class:`InterleavePolicy` names the
LSB-to-MSB order of the sub-row fields (channel / rank / bank), with the
column always lowest and the row always highest — so ``row_of`` and the
workload generators' row arithmetic are policy-independent.  Shipped
policies (``DRAMOrganization.interleave``, sweepable as e.g.
``org.interleave=robarachco,chxor``):

* ``robarachco`` — the default above;
* ``rorabachco`` — rank above bank (row : rank : bank : channel : column),
  so consecutive rows of one channel rotate banks before ranks: bank
  parallelism is exposed first, rank turnarounds amortise over longer
  streaks;
* ``chxor`` — RoBaRaChCo with the channel index XOR-folded with the low
  row bits (permutation channel hashing, self-inverse): strided streams
  that would camp on one channel scatter across all of them.

The optional **XOR permutation remapping** implements Zhang, Zhu & Zhang
(MICRO'00): the bank index is XORed with the low bits of the row index, so
two addresses that fall in the *same bank but different rows* (a row-buffer
conflict) are scattered to *different banks*.  The paper adds this scheme to
all controller designs in its Fig. 9 experiment because it mitigates
read-read conflicts (RRC) the same way it mitigates read-write conflicts in
conventional DRAM.  It is orthogonal to the interleave policy (it permutes
within the bank field, a policy permutes the fields themselves).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import INTERLEAVE_POLICIES, DRAMOrganization


class DecodedAddress(NamedTuple):
    """A fully decoded DRAM coordinate.

    ``col`` is in units of cache blocks (64 B) within the row.
    ``global_bank`` is a flattened (channel, rank, bank) index usable as a
    key into per-bank controller state such as DCA's RRPC counters.
    """

    channel: int
    rank: int
    bank: int
    row: int
    col: int

    @property
    def global_bank(self) -> int:
        # Flattening is computed by AddressMapper.decode; stored here lazily
        # would cost a slot, so derive the common 1-rank case directly.
        raise AttributeError("use AddressMapper.global_bank(decoded)")


class InterleavePolicy(NamedTuple):
    """One address bit-slicing: which field owns which bits.

    ``field_order`` lists the sub-row fields from LSB to MSB (some
    permutation of ``"ch"``/``"ra"``/``"ba"``); the column field always
    sits below them and the row field always on top.  ``channel_xor``
    additionally XOR-folds the low row bits into the channel index
    (self-inverse, so encode/decode stay exact mirrors).
    """

    name: str
    field_order: tuple[str, str, str]
    channel_xor: bool = False


#: Shipped policies; the *names* are declared in
#: repro.config.INTERLEAVE_POLICIES so config validation never depends
#: on this module (a tuple, not a dict: module-level mutable state is
#: barred from the simulation packages — dca-lint R2).
INTERLEAVES: tuple[InterleavePolicy, ...] = (
    InterleavePolicy("robarachco", ("ch", "ra", "ba")),
    InterleavePolicy("rorabachco", ("ch", "ba", "ra")),
    InterleavePolicy("chxor", ("ch", "ra", "ba"), channel_xor=True),
)


def interleave_policy(name: str) -> InterleavePolicy:
    """Look up a policy by its config name (case-insensitive)."""
    wanted = name.lower()
    for policy in INTERLEAVES:
        if policy.name == wanted:
            return policy
    raise ValueError(
        f"unknown interleave policy {name!r}; "
        f"known: {tuple(p.name for p in INTERLEAVES)}")


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

    __slots__ = ("org", "xor_remap", "policy",
                 "_block_bits", "_col_bits", "_ch_bits", "_ra_bits",
                 "_ba_bits", "_col_mask", "_ch_mask", "_ra_mask", "_ba_mask",
                 "_col_shift", "_ch_shift", "_ra_shift", "_ba_shift",
                 "_row_shift", "_ch_xor", "_banks_per_rank", "_banks_per_ch")

    def __init__(self, org: DRAMOrganization, xor_remap: bool = False):
        self.org = org
        self.xor_remap = xor_remap
        self.policy = interleave_policy(org.interleave)

        self._block_bits = (org.block_bytes - 1).bit_length()
        self._col_bits = (org.blocks_per_row - 1).bit_length()
        self._ch_bits = (org.channels - 1).bit_length()
        self._ra_bits = (org.ranks_per_channel - 1).bit_length()
        self._ba_bits = (org.banks_per_rank - 1).bit_length()

        self._col_mask = org.blocks_per_row - 1
        self._ch_mask = org.channels - 1
        self._ra_mask = org.ranks_per_channel - 1
        self._ba_mask = org.banks_per_rank - 1

        # Bit offsets from LSB: column lowest, then the policy's field
        # order, row on top.  Decode/encode stay straight-line integer
        # arithmetic — the policy only chooses the precomputed shifts.
        self._col_shift = self._block_bits
        shift = self._col_shift + self._col_bits
        bits = {"ch": self._ch_bits, "ra": self._ra_bits,
                "ba": self._ba_bits}
        shifts = {}
        for fld in self.policy.field_order:
            shifts[fld] = shift
            shift += bits[fld]
        self._ch_shift = shifts["ch"]
        self._ra_shift = shifts["ra"]
        self._ba_shift = shifts["ba"]
        self._row_shift = shift
        self._ch_xor = self.policy.channel_xor
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


# The two name surfaces must agree: config validates spellings, this
# module implements them.  Checked at import so they cannot drift.
assert tuple(p.name for p in INTERLEAVES) == INTERLEAVE_POLICIES
