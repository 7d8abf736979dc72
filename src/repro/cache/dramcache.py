"""Functional tag state of the DRAM cache (both organizations).

This tracks *what is in the cache* — tags, valid, dirty, LRU stamps — so
the controller can resolve hit/miss at tag-read completion time and find
victims at fill time.  Timing lives entirely in the controller + DRAM
substrate; this module is purely functional and therefore shared verbatim
by every controller design (CD / ROD / DCA see identical contents).

The state is three flat columns indexed by ``slot = set * ways + way``:
``_tags`` (a list, -1 = invalid way), ``_dirty`` (a bytearray of 0/1) and
``_stamp`` (an ``array('q')`` of LRU stamps, 0 = never stamped).  A set
is the slice ``[set * ways, set * ways + ways)``; membership is a C-level
``in`` over the tag slice.  The columns are allocated on the first write
(a geometry-only array, as Fig. 18 builds, costs nothing), and an
unallocated column slices to ``[]``, so a probe of an empty array misses
with no extra branch.

Both organizations share this one tag store: a direct-mapped array is
the one-way case, with one set per entry.  Only the stacked-DRAM layout
differs (a tag block plus data ways versus one fused TAD unit), so the
organization is consulted when the geometry is chosen and when an array
address is computed, nowhere else.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
from numpy.typing import NDArray

from repro.cache.organizations import (
    DirectMappedGeometry, Index, SetAssociativeGeometry)
from repro.cache.replacement import SA_POLICIES
from repro.config import DRAMCacheGeometry


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a functional probe."""

    hit: bool
    way: int = -1            # way index (always 0 in DM); -1 on miss
    dirty: bool = False      # dirty state of the hit block


@dataclass(frozen=True)
class FillResult:
    """Outcome of inserting a block: the displaced victim, if any."""

    way: int
    victim_block_addr: Optional[int] = None   # physical block addr of victim
    victim_dirty: bool = False


# Shared immutable miss result: probe() runs once per functional access
# and most probes miss cold structures, so skipping the dataclass
# construction there is a measurable win.
_MISS = LookupResult(False)

#: the tag-store columns (copied, never shared, by every fork path)
_COLUMNS = ("_tags", "_dirty", "_stamp")


def _dirty_bits(blocks: NDArray[np.int64], seed: int,
                dirty_fraction: float) -> NDArray[np.bool_]:
    """Deterministic per-block dirty choice (Knuth multiplicative hash)."""
    h = ((blocks + seed) * np.int64(2654435761)) & np.int64(0xFFFFFFFF)
    return (h >> 16).astype(np.float64) / 65536.0 < dirty_fraction


class DRAMCacheArray:
    """Functional contents of the DRAM cache.

    Parameters
    ----------
    geometry:
        Raw capacity/layout description (Table II).
    organization:
        ``"sa"`` (set-associative, Loh–Hill) or ``"dm"`` (direct-mapped,
        Alloy).
    replacement:
        Victim-selection policy (see :mod:`repro.cache.replacement`); a
        direct-mapped set has one way, so every policy picks it.  Applies
        to demand fills only — the fused warm-up paths
        (:meth:`bulk_fill`/:meth:`bulk_fill_many`) keep their
        LRU-insertion-order semantics under every policy (documented
        modeling assumption: warm-up populates, it does not exercise
        replacement).
    """

    def __init__(self, geometry: DRAMCacheGeometry, organization: str = "sa",
                 replacement: str = "lru"):
        organization = organization.lower()
        if organization not in ("sa", "dm"):
            raise ValueError(f"unknown organization {organization!r}")
        self.geometry = geometry
        self.organization = organization
        self.replacement = replacement
        # Module-level function, never a closure (snapshot-safe).
        self._victim_way = SA_POLICIES[replacement]
        self.sa = SetAssociativeGeometry(geometry)
        self.dm = DirectMappedGeometry(geometry)
        # Geometry scalars flattened onto the instance: probe/_touch run
        # once per functional access and the attribute-chain lookups were
        # a measurable share of the end-to-end profile.
        self._block_bytes = geometry.block_bytes
        if organization == "dm":
            self._num_sets, self._ways = self.dm.num_entries, 1
        else:
            self._num_sets, self._ways = self.sa.num_sets, self.sa.ways
        # Tag-store columns, empty until the first write.
        self._tags: list[int] = []
        self._dirty = bytearray()
        self._stamp: array[int] = array("q")
        self._clock = 0  # LRU stamp source
        # Functional counters (used by tests and the Fig. 18 harness).
        self.lookups = 0
        self.hits = 0
        self.fills = 0
        self.dirty_evictions = 0

    # -- common helpers --------------------------------------------------------

    @property
    def is_direct_mapped(self) -> bool:
        return self.organization == "dm"

    def _allocate(self) -> None:
        """Materialise empty tag-store columns (first write)."""
        cells = self._num_sets * self._ways
        self._tags = [-1] * cells
        self._dirty = bytearray(cells)
        self._stamp = array("q", [0]) * cells

    # -- probes (no replacement-state side effects) ----------------------------

    def probe(self, addr: int) -> LookupResult:
        """Hit/miss/dirty query with no state change."""
        b = addr // self._block_bytes
        n = self._num_sets
        ways = self._ways
        lo = (b % n) * ways
        tag = b // n
        # list.__contains__ / index scan the ways at C speed; the double
        # scan on a hit still beats an interpreted enumerate loop.
        seg = self._tags[lo:lo + ways]
        if tag in seg:
            w = seg.index(tag)
            return LookupResult(True, w, bool(self._dirty[lo + w]))
        return _MISS

    # -- timed-path operations (called at access completion times) -------------

    def lookup_read(self, addr: int) -> LookupResult:
        """Resolve a cache-read tag check; updates LRU on a hit.

        In the real system the LRU/replacement-bit update is carried by the
        WTr tag-write access; functionally we apply it here so the state the
        *next* tag read observes matches what that write will have stored.
        """
        self.lookups += 1
        res = self.probe(addr)
        if res.hit:
            self.hits += 1
            self._touch(addr, res.way)
        return res

    def lookup_write(self, addr: int) -> LookupResult:
        """Resolve a writeback tag check; marks dirty + LRU on a hit."""
        self.lookups += 1
        res = self.probe(addr)
        if res.hit:
            self.hits += 1
            self._dirty[self.set_index(addr) * self._ways + res.way] = 1
            self._touch(addr, res.way)
        return res

    def fill(self, addr: int, dirty: bool) -> FillResult:
        """Insert ``addr`` (refill from memory, or allocating writeback).

        Returns the victim (if a valid block was displaced) so the caller
        can generate the victim's main-memory writeback when it was dirty.
        """
        self.fills += 1
        b = addr // self._block_bytes
        if not self._tags:
            self._allocate()
        n = self._num_sets
        ways = self._ways
        set_idx = b % n
        tag = b // n
        lo = set_idx * ways
        tags = self._tags
        dirty_col = self._dirty
        seg = tags[lo:lo + ways]
        # Refill of a block already present (e.g. race with a concurrent
        # writeback-allocate) just refreshes it.
        if tag in seg:
            w = seg.index(tag)
            if dirty:
                dirty_col[lo + w] = 1
            self._touch(addr, w)
            return FillResult(w)
        # Prefer an invalid way; otherwise the configured policy picks
        # among valid ways (stamps are unique, so the default LRU's
        # index-of-min is the unambiguous oldest way).
        if -1 in seg:
            w = seg.index(-1)
        else:
            w = self._victim_way(seg, dirty_col[lo:lo + ways],
                                 self._stamp[lo:lo + ways])
        slot = lo + w
        old_tag = seg[w]
        old_dirty = bool(dirty_col[slot])
        tags[slot] = tag
        dirty_col[slot] = dirty
        self._clock += 1
        self._stamp[slot] = self._clock
        if old_tag == -1:
            return FillResult(w)
        victim_addr = (old_tag * n + set_idx) * self._block_bytes
        if old_dirty:
            self.dirty_evictions += 1
        return FillResult(w, victim_addr, old_dirty)

    def invalidate(self, addr: int) -> bool:
        """Drop a block (used by tests and coherence-style experiments)."""
        b = addr // self._block_bytes
        lo = (b % self._num_sets) * self._ways
        seg = self._tags[lo:lo + self._ways]
        tag = b // self._num_sets
        if tag not in seg:
            return False
        slot = lo + seg.index(tag)
        self._tags[slot] = -1
        self._dirty[slot] = 0
        return True

    # -- warm-up ----------------------------------------------------------------

    def bulk_fill(self, start_addr: int, n_blocks: int,
                  dirty_fraction: float = 0.0, seed: int = 0) -> None:
        """Functionally pre-populate a contiguous block range (warm-up).

        Mirrors the paper's fast-forward cache warming: the range
        ``[start_addr, start_addr + n_blocks*64)`` is inserted as if each
        block had been filled once in address order, with a deterministic
        pseudo-random ``dirty_fraction`` of blocks marked dirty.  Every
        touched set is merged with its existing contents in one vectorised
        step, stamped in ascending set order; this is the sequential
        reference that :meth:`bulk_fill_many` must reproduce exactly.
        """
        if n_blocks <= 0:
            return
        n_sets, ways = self._num_sets, self._ways
        # Only the last `ways` inserts of a set can survive, so only the
        # range's last `ways * n_sets` blocks matter (each set's last
        # `ways`); the earlier ones are skipped outright (no clock tick,
        # no eviction), exactly as if each block had been filled once.
        m = min(n_blocks, n_sets * ways)
        first = start_addr // self._block_bytes + n_blocks - m
        blocks = np.arange(first, first + m, dtype=np.int64)
        ins_set = blocks % n_sets
        ins_k = np.arange(m, dtype=np.int64) // n_sets   # k-th insert of its set
        per_set = np.bincount(ins_set, minlength=n_sets)
        # Sets are stamped in ascending set order, one tick per insert.
        inserted = (blocks // n_sets, _dirty_bits(blocks, seed, dirty_fraction),
                    (self._clock + 1 + np.cumsum(per_set) - per_set)[ins_set]
                    + ins_k)
        if not self._tags:
            self._allocate()
        tags = np.array(self._tags, dtype=np.int64).reshape(n_sets, ways)
        dirty = np.frombuffer(self._dirty, dtype=np.bool_).reshape(n_sets, ways)
        stamp = np.frombuffer(self._stamp, dtype=np.int64).reshape(n_sets, ways)

        # Each touched set keeps its valid ways in way order and the
        # inserts follow.  On overflow it is in stamp order instead (the
        # existing stamps all predate the inserts) and the oldest
        # `overflow` entries are displaced.
        touched = np.flatnonzero(per_set)
        invalid = tags[touched] == -1
        n_valid = ways - invalid.sum(axis=1)
        overflow = np.maximum(n_valid + per_set[touched] - ways, 0)
        way = np.arange(ways)
        key = np.where(invalid, np.iinfo(np.int64).max,
                       np.where(overflow[:, None] > 0, stamp[touched], way))
        order = np.argsort(key, axis=1, kind="stable")
        displaced = way < overflow[:, None]
        self.dirty_evictions += int(np.count_nonzero(
            np.take_along_axis(dirty[touched], order, axis=1) & displaced))
        # Survivors then inserts, packed from way 0; the rest is empty.
        r, w = np.nonzero(~displaced & (way < n_valid[:, None]))
        row = np.zeros(n_sets, dtype=np.int64)
        row[touched] = np.arange(len(touched))
        r_ins = row[ins_set]
        w_ins = n_valid[r_ins] - overflow[r_ins] + ins_k
        for col, empty, new in zip((tags, dirty, stamp), (-1, False, 0), inserted):
            kept = np.take_along_axis(col[touched], order, axis=1)
            out = np.full_like(kept, empty)
            out[r, w - overflow[r]] = kept[r, w]
            out[r_ins, w_ins] = new
            col[touched] = out
        self._tags = tags.ravel().tolist()
        self._clock += m

    def bulk_fill_many(self, fills: list[tuple[int, int, float, int]]) -> None:
        """Apply several :meth:`bulk_fill` ranges in one fused pass.

        ``fills`` is a list of ``(start_addr, n_blocks, dirty_fraction,
        seed)`` tuples, applied with semantics identical to calling
        :meth:`bulk_fill` once per tuple in order — same final contents,
        same insertion-clock values, same ``dirty_evictions`` count.

        On an unallocated array (the warm-up case) the
        whole batch is computed in closed form and scattered into flat
        columns, with no per-set Python work and no sort:

        * a contiguous range puts its ``k``-th block of set ``s`` at
          ``k * num_sets`` past the set's first block, so per call only
          its last ``ways * num_sets`` blocks can survive (exactly the
          last ``ways`` of every set), and bulk_fill's stamp for that
          insert is ``clock + 1 + (inserts of sets < s) + k``;
        * across calls the survivors of a set are its newest ``ways``
          inserts: the oldest ``max(0, total - ways)`` are displaced,
          earliest range first, each counting its dirty bit once as an
          eviction, and the rest lie in stamp order from way 0, which is
          what repeated bulk_fill leaves on an empty set.
        """
        if self._tags:
            for start_addr, n_blocks, dirty_fraction, seed in fills:
                self.bulk_fill(start_addr, n_blocks,
                               dirty_fraction=dirty_fraction, seed=seed)
            return

        n_sets, ways = self._num_sets, self._ways
        capacity = n_sets * ways
        set_ids = np.arange(n_sets, dtype=np.int64)
        # Per range: first surviving block, survivor count, inserts per set.
        runs: list[tuple[int, int, NDArray[np.int64], float, int]] = []
        for start_addr, n_blocks, dirty_fraction, seed in fills:
            if n_blocks <= 0:
                continue
            m = min(n_blocks, capacity)
            first = start_addr // self._block_bytes + n_blocks - m
            per_set = (m - (set_ids - first) % n_sets + n_sets - 1) // n_sets
            runs.append((first, m, per_set, dirty_fraction, seed))
        if not runs:
            return

        overflow = np.maximum(sum(run[2] for run in runs) - ways, 0)
        # The dirty and stamp columns are written in place through numpy
        # views; the tag column is built in numpy and converted once.
        self._dirty = bytearray(capacity)
        self._stamp = array("q", [0]) * capacity
        tags = np.full(capacity, -1, dtype=np.int64)
        dirty = np.frombuffer(self._dirty, dtype=np.bool_)
        stamp = np.frombuffer(self._stamp, dtype=np.int64)
        earlier = np.zeros(n_sets, dtype=np.int64)    # inserts of prior ranges
        clock = self._clock
        evictions = 0
        for first, m, per_set, dirty_fraction, seed in runs:
            displaced_before = np.minimum(overflow, earlier)
            drop = np.minimum(overflow - displaced_before, per_set)
            # The range as a (rows, n_sets) grid in address order: cell
            # (k, t) is block first + k * n_sets + t, the k-th insert of
            # set col_set[t]; cells past the m-th are cut off.
            off = first % n_sets
            col_set = np.roll(set_ids, -off)
            k = np.arange(-(-m // n_sets), dtype=np.int64)[:, None]
            blocks = (first + set_ids + k * n_sets).ravel()[:m]
            drt = _dirty_bits(blocks, seed, dirty_fraction)
            # Kept inserts follow the earlier ranges' survivors in stamp
            # order; bulk_fill stamps set by set in ascending set order.
            way0 = col_set * ways + (earlier - displaced_before - drop)[col_set]
            slot = (way0 + k).ravel()[:m]
            stamp0 = (clock + 1 + np.cumsum(per_set) - per_set)[col_set]
            tag = (first // n_sets + (col_set < off) + k).ravel()[:m]
            stamps = (stamp0 + k).ravel()[:m]
            if drop.any():
                keep = (k >= drop[col_set]).ravel()[:m]
                evictions += int(np.count_nonzero(drt & ~keep))
                slot, tag, drt, stamps = slot[keep], tag[keep], drt[keep], stamps[keep]
            tags[slot] = tag
            dirty[slot] = drt
            stamp[slot] = stamps
            clock += m
            earlier += per_set

        self._tags = tags.tolist()
        self._clock = clock
        self.dirty_evictions += evictions

    # -- snapshot hooks (see repro/snapshot.py and DESIGN.md) -------------------

    def contents_signature(self) -> tuple[Any, ...]:
        """Value-only digest of the functional contents (snapshot tests).

        Deterministically ordered and identity-free, so signatures of
        independent copies compare equal iff the contents match.  Lists
        every set that was ever written (any nonzero stamp), whether or
        not the columns behind it were allocated lazily.
        """
        if not self._tags:
            return (self.organization, self._clock, [])
        ways = self._ways
        stamps = np.frombuffer(self._stamp, dtype=np.int64).reshape(-1, ways)
        written = np.flatnonzero(stamps.any(axis=1)).tolist()
        tags, dirty, stamp = self._tags, self._dirty, self._stamp
        return (self.organization, self._clock,
                [(s, tuple(tags[s * ways:s * ways + ways]),
                  tuple(map(bool, dirty[s * ways:s * ways + ways])),
                  tuple(stamp[s * ways:s * ways + ways]))
                 for s in written])

    def capture_state(self) -> dict[str, Any]:
        """Freeze the functional contents for warm-state forking.

        The image is an immutable copy (a tuple of tags and two byte
        strings), so the donor may keep simulating while any number of
        restored arrays fork from it.
        """
        return {"organization": self.organization, "clock": self._clock,
                "tags": tuple(self._tags), "dirty": bytes(self._dirty),
                "stamp": self._stamp.tobytes()}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt functional contents captured by :meth:`capture_state`.

        Each restore copies the image into fresh columns, so one capture
        serves any number of restores, no two arrays share mutable state,
        and each restored run is bit-identical to a run that did the
        functional warm-up itself.
        """
        if state["organization"] != self.organization:
            raise ValueError(
                f"cannot restore {state['organization']!r} array state into "
                f"a {self.organization!r} array")
        self._clock = state["clock"]
        self._tags = list(state["tags"])
        self._dirty = bytearray(state["dirty"])
        self._stamp = array("q", state["stamp"])

    def __deepcopy__(self, memo: dict[int, Any]) -> DRAMCacheArray:
        # Full snapshots deep-copy the whole System.  The generic path
        # would visit every cell of the tag column one int at a time;
        # the cells are immutable scalars, so a slice copy is identical.
        new = type(self).__new__(type(self))
        memo[id(self)] = new
        for name, value in self.__dict__.items():
            new.__dict__[name] = (value[:] if name in _COLUMNS
                                  else copy.deepcopy(value, memo))
        return new

    def _touch(self, addr: int, way: int) -> None:
        self._clock += 1
        self._stamp[(addr // self._block_bytes) % self._num_sets * self._ways
                    + way] = self._clock

    # -- array-address helpers (where tag/data live in the stacked DRAM) -------

    def set_index(self, addr: Index) -> Index:
        """Set (DM: entry) that ``addr`` maps to."""
        return addr // self._block_bytes % self._num_sets

    def tag_location_of_set(self, set_idx: Index) -> Index:
        """Array address of the tag structure of set ``set_idx``, which
        wraps modulo the set count: a tag block (SA) or a TAD unit (DM)."""
        set_idx = set_idx % self._num_sets
        if self.is_direct_mapped:
            return self.dm.tad_array_addr(set_idx)
        return self.sa.tag_array_addr(set_idx)

    def tag_location(self, addr: int) -> int:
        """Array address of the tag structure guarding ``addr``."""
        return self.tag_location_of_set(self.set_index(addr))

    def data_location(self, addr: int, way: int) -> int:
        """Array address of the data block for ``addr`` in ``way``."""
        if self.is_direct_mapped:
            return self.tag_location(addr)   # the TAD holds tag and data
        return self.sa.data_array_addr(self.set_index(addr), way)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset_counters(self) -> None:
        """Zero the functional counters (warm-up boundary)."""
        self.lookups = self.hits = self.fills = self.dirty_evictions = 0
