"""Geometry of the two tags-in-DRAM organizations (paper Fig. 1, Table II).

Both organizations store tags inside the stacked DRAM rows themselves and
cache the same number of data bytes (the "1 / 15 way" Table II line: 15/16
of raw capacity holds data, 1/16 holds tags):

**Set-associative (Loh–Hill)** — a 4 KB row is divided into 4 *set units*
of 16 blocks: one tag block followed by 15 data ways.  A cache read does a
tag-block access, then (on a hit) a data-block access, then a tag-block
write to update replacement state.

**Direct-mapped (Alloy)** — tag and data are fused into a TAD
(tag-and-data) unit streamed out with one slightly wider burst, so a read
is a single access.  We keep 60 TADs per 4 KB row (the same 15/16 usable
fraction) so both organizations have identical data capacity, as in the
paper.

Both classes map a cache coordinate (set/way or entry) to a byte address in
the stacked-DRAM *array address space*, which the RoBaRaChCo mapper then
decodes to (channel, rank, bank, row, column).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.config import DRAMCacheGeometry

#: a set/entry index or array address: one int, or an int64 array of them
#: (the address helpers are plain arithmetic, so they map whole columns)
Index = TypeVar("Index", int, NDArray[np.int64])


@dataclass(frozen=True)
class SetAssociativeGeometry:
    """Loh–Hill style layout: 4 sets per row, 1 tag block + 15 ways each."""

    cache: DRAMCacheGeometry

    # cached_property: set_index/tag_value run once per functional cache
    # access, and recomputing the geometry arithmetic there dominated
    # the probe profile.  Caching into __dict__ is compatible with the
    # frozen dataclass (no __setattr__ involved).
    @cached_property
    def ways(self) -> int:
        return self.cache.sa_ways

    @cached_property
    def num_sets(self) -> int:
        return self.cache.sa_sets

    @cached_property
    def sets_per_row(self) -> int:
        """4 KB row / (16 blocks per set unit) = 4 set units per row."""
        blocks_per_row = self.cache.row_bytes // self.cache.block_bytes
        return blocks_per_row // (self.ways + 1)

    def set_index(self, block_addr: int) -> int:
        """Set for a (physical) block address (block_addr = addr >> 6)."""
        return block_addr % self.num_sets

    def tag_value(self, block_addr: int) -> int:
        return block_addr // self.num_sets

    def block_addr(self, set_idx: int, tag: int) -> int:
        """Inverse mapping (used to reconstruct victim addresses)."""
        return tag * self.num_sets + set_idx

    def tag_array_addr(self, set_idx: Index) -> Index:
        """Array byte address of the tag block guarding ``set_idx``."""
        row = set_idx // self.sets_per_row
        slot = set_idx % self.sets_per_row
        col = slot * (self.ways + 1)
        return row * self.cache.row_bytes + col * self.cache.block_bytes

    def data_array_addr(self, set_idx: int, way: int) -> int:
        """Array byte address of data way ``way`` of ``set_idx``."""
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range 0..{self.ways - 1}")
        row = set_idx // self.sets_per_row
        slot = set_idx % self.sets_per_row
        col = slot * (self.ways + 1) + 1 + way
        return row * self.cache.row_bytes + col * self.cache.block_bytes


@dataclass(frozen=True)
class DirectMappedGeometry:
    """Alloy style layout: 60 TAD units per 4 KB row, tag+data fused."""

    cache: DRAMCacheGeometry

    @cached_property
    def num_entries(self) -> int:
        return self.cache.dm_entries

    @cached_property
    def entries_per_row(self) -> int:
        """15/16 of the row's blocks hold TADs (tag bits ride along)."""
        blocks_per_row = self.cache.row_bytes // self.cache.block_bytes
        return blocks_per_row * 15 // 16

    def entry_index(self, block_addr: int) -> int:
        return block_addr % self.num_entries

    def tag_value(self, block_addr: int) -> int:
        return block_addr // self.num_entries

    def block_addr(self, entry_idx: int, tag: int) -> int:
        return tag * self.num_entries + entry_idx

    def tad_array_addr(self, entry_idx: Index) -> Index:
        """Array byte address of the TAD unit for ``entry_idx``.

        Tag and data share this address: a single access touches both.
        """
        row = entry_idx // self.entries_per_row
        slot = entry_idx % self.entries_per_row
        return row * self.cache.row_bytes + slot * self.cache.block_bytes
