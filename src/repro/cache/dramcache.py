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

import math
from array import array
from typing import Any, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from repro.cache.organizations import (
    DirectMappedGeometry, Index, SetAssociativeGeometry)
from repro.cache.replacement import SA_POLICIES
from repro.config import DRAMCacheGeometry


class LookupResult(NamedTuple):
    """Outcome of a functional probe (immutable, cheap to build)."""

    hit: bool
    way: int = -1            # way index (always 0 in DM); -1 on miss
    dirty: bool = False      # dirty state of the hit block


class FillResult(NamedTuple):
    """Outcome of inserting a block: the displaced victim, if any."""

    way: int
    victim_block_addr: Optional[int] = None   # physical block addr of victim
    victim_dirty: bool = False


# Shared immutable miss result: probe() runs once per functional access
# and most probes miss cold structures, so skipping the construction
# there is a measurable win.
_MISS = LookupResult(False)

def _dirty_bits(blocks: NDArray[np.int64], seed: int,
                dirty_fraction: float) -> NDArray[np.bool_]:
    """Deterministic per-block dirty choice (Knuth multiplicative hash)."""
    h = ((blocks + seed) * np.int64(2654435761)) & np.int64(0xFFFFFFFF)
    # An integer x is below c exactly when it is below ceil(c), and
    # scaling by 2**16 is exact: this is x / 65536.0 < dirty_fraction.
    return (h >> 16) < math.ceil(dirty_fraction * 65536.0)


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
        to demand fills and the warm-up replay only — the warm-up
        prefill (:meth:`bulk_fill_many`) keeps its
        LRU-insertion-order semantics under every policy (documented
        modeling assumption: warm-up populates, it does not exercise
        replacement).
    """

    #: fills mapped per numpy pass of :meth:`fill_many` (bounds the
    #: chunk's Python-int columns, as ``TagCache.CHUNK`` does)
    CHUNK = 4096

    def __init__(self, geometry: DRAMCacheGeometry, organization: str = "sa",
                 replacement: str = "lru"):
        organization = organization.lower()
        if organization not in ("sa", "dm"):
            raise ValueError(f"unknown organization {organization!r}")
        self.geometry = geometry
        self.organization = organization
        #: a plain attribute, not a property: the translator reads it on
        #: every tag-read completion
        self.is_direct_mapped = organization == "dm"
        self.replacement = replacement
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
        #: array-address offset of each way's data block from its set's
        #: tag structure (the same for every set): ``data_location(addr,
        #: way) == tag_location(addr) + data_offsets[way]``; the
        #: translator checks with it that a set's blocks share one DRAM
        #: row.  DM's one way is the TAD itself (offset 0).
        self.data_offsets: tuple[int, ...] = tuple(
            self.data_location(0, w) - self.tag_location(0)
            for w in range(self._ways))
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

    def fill_many(self, addrs: NDArray[np.int64],
                  dirty: NDArray[np.bool_]) -> None:
        """Insert ``addrs`` in order, each exactly as :meth:`fill` would.

        The batched replay of the functional warm-up.  A lookup followed,
        on a miss, by a fill leaves the state one :meth:`fill` leaves, so
        a read replays as ``fill(addr, False)`` and a dirty writeback as
        ``fill(addr, True)``; only the ``lookups``/``hits`` counters are
        not kept.  Per chunk, numpy maps the addresses to set offsets and
        tags; one loop then runs hit-refresh, invalid-way-first, the
        victim policy and stamping inline.
        """
        n = len(addrs)
        if not n:
            return
        if not self._tags:
            self._allocate()
        self.fills += n
        n_sets, ways = self._num_sets, self._ways
        tags, dirty_col, stamp = self._tags, self._dirty, self._stamp
        victim_way = self._victim_way
        clock = self._clock
        evictions = 0
        for lo in range(0, n, self.CHUNK):
            blocks = addrs[lo:lo + self.CHUNK] // self._block_bytes
            for base, tag, d in zip((blocks % n_sets * ways).tolist(),
                                    (blocks // n_sets).tolist(),
                                    dirty[lo:lo + self.CHUNK].tolist()):
                seg = tags[base:base + ways]
                if tag in seg:
                    slot = base + seg.index(tag)
                    if d:
                        dirty_col[slot] = 1
                else:
                    if -1 in seg:
                        slot = base + seg.index(-1)
                    else:
                        slot = base + victim_way(
                            seg, dirty_col[base:base + ways],
                            stamp[base:base + ways])
                        if dirty_col[slot]:
                            evictions += 1
                    tags[slot] = tag
                    dirty_col[slot] = d
                clock += 1
                stamp[slot] = clock
        self._clock = clock
        self.dirty_evictions += evictions

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

    def bulk_fill_many(self, fills: list[tuple[int, int, float, int]]) -> None:
        """Functionally pre-populate contiguous block ranges (warm-up).

        Mirrors the paper's fast-forward cache warming.  ``fills`` is a
        list of ``(start_addr, n_blocks, dirty_fraction, seed)`` tuples,
        applied in order: each range ``[start_addr, start_addr +
        n_blocks*64)`` is inserted as if each block had been filled once
        in address order, with a deterministic pseudo-random
        ``dirty_fraction`` of blocks marked dirty, and every touched set
        is merged with its existing contents, stamped in ascending set
        order.  A batch equals the same ranges applied one call each.

        A contiguous range puts its ``k``-th block of set ``s`` at ``k *
        num_sets`` past the set's first block, so only its last ``ways *
        num_sets`` blocks can survive (exactly the last ``ways`` of every
        set), and the stamp of that insert is ``clock + 1 + (the range's
        inserts to sets < s) + k``.

        On an unallocated array (the warm-up case) the whole batch is
        computed in closed form over each range's columns (the ``min(m,
        num_sets)`` sets a range of ``m`` blocks touches), so the work
        scales with the ranges, not the set count: across ranges the
        survivors of a set are its newest ``ways`` inserts, the oldest
        ``max(0, total - ways)`` are displaced (earliest range first,
        each dirty one counting as an eviction), and the rest lie in
        stamp order from way 0.  On a populated array each range is
        merged set by set in numpy (:meth:`_merge`), with the tag column
        converted to numpy and back once per batch.
        """
        if self._tags:
            tags = np.array(self._tags, dtype=np.int64)
            for start_addr, n_blocks, dirty_fraction, seed in fills:
                self._merge(tags, start_addr, n_blocks, dirty_fraction, seed)
            self._tags = tags.tolist()
            return

        n_sets, ways = self._num_sets, self._ways
        capacity = n_sets * ways
        # Per range: first surviving block and survivor count.
        runs = [(start_addr // self._block_bytes + n_blocks - m, m,
                 dirty_fraction, seed)
                for start_addr, n_blocks, dirty_fraction, seed in fills
                if (m := min(n_blocks, capacity)) > 0]
        if not runs:
            return

        def below(x: int, s: NDArray[np.int64]) -> NDArray[np.int64]:
            """Integers in [0, x) whose set (residue) is below s."""
            return x // n_sets * s + np.minimum(x % n_sets, s)

        def count(first: int, m: int,
                  s: NDArray[np.int64]) -> NDArray[np.int64]:
            """Blocks of [first, first + m) in set s."""
            return m // n_sets + ((s - first) % n_sets < m % n_sets)

        self._dirty = bytearray(capacity)
        self._stamp = array("q", [0]) * capacity
        # A range's tags are the few integers first // num_sets + k, so
        # the tag column is built as codes into one list of them: the
        # column's cells then share those int objects instead of each
        # holding its own (half a million on the quick-scale array).
        codes = np.zeros(capacity, dtype=np.int64)
        values = [-1]                       # code 0: an invalid way
        dirty = np.frombuffer(self._dirty, dtype=np.bool_)
        stamp = np.frombuffer(self._stamp, dtype=np.int64)
        clock = self._clock
        evictions = 0
        for i, (first, m, dirty_fraction, seed) in enumerate(runs):
            # The range as a (rows, width) grid in address order: cell
            # (k, t) is block col[t] + k * num_sets, the k-th insert of
            # set s[t]; cells past the m-th are cut off.  Per-set terms
            # are computed once per column, never per set of the array.
            col = first + np.arange(min(m, n_sets), dtype=np.int64)
            s = col % n_sets
            rows = -(-m // n_sets)
            k = np.arange(rows, dtype=np.int64)[:, None]
            counts = [count(f, n, s) for f, n, *_ in runs]
            earlier = sum(counts[:i])       # the set's inserts so far
            # Way of the set's k = 0 insert once the oldest max(0, total
            # - ways) of its inserts over all ranges are displaced; a way
            # below 0 is a displaced insert.
            way0 = earlier - np.maximum(sum(counts) - ways, 0)
            stamp0 = clock + 1 + below(first + m, s) - below(first, s)
            keep = (way0 + k >= 0).ravel()[:m]
            drt = _dirty_bits((col + k * n_sets).ravel()[:m], seed,
                              dirty_fraction)
            evictions += int(np.count_nonzero(drt & ~keep))
            # One range-sized column at a time: each is built, cut to the
            # kept inserts and scattered before the next one exists.
            slot = (s * ways + way0 + k).ravel()[:m][keep]
            low = first // n_sets
            codes[slot] = ((col // n_sets + (len(values) - low) + k)
                           .ravel()[:m][keep])
            values.extend(range(low, low + rows + 1))
            dirty[slot] = drt[keep]
            stamp[slot] = (stamp0 + k).ravel()[:m][keep]
            clock += m
        self._tags = np.array(values, dtype=object)[codes].tolist()
        self._clock = clock
        self.dirty_evictions += evictions

    def _merge(self, tags: NDArray[np.int64], start_addr: int, n_blocks: int,
               dirty_fraction: float, seed: int) -> None:
        """Merge one range into the populated array in one numpy step.

        ``tags`` is the tag column as a flat int64 array (the caller
        converts it once per batch); the dirty and stamp columns are
        written in place through numpy views.  Each touched set keeps its
        valid ways in way order and the inserts follow; on overflow it is
        in stamp order instead (the existing stamps all predate the
        inserts) and the oldest ``overflow`` entries are displaced.
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
        tags = tags.reshape(n_sets, ways)
        dirty = np.frombuffer(self._dirty, dtype=np.bool_).reshape(n_sets, ways)
        stamp = np.frombuffer(self._stamp, dtype=np.int64).reshape(n_sets, ways)

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
        self._clock += m

    # -- warm-state hooks (see repro/snapshot.py and DESIGN.md) ---------------

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
