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
    """

    #: fills mapped per numpy pass of :meth:`fill_many` (bounds the
    #: chunk's Python-int columns, as ``TagCache.CHUNK`` does)
    CHUNK = 4096
    #: cells of the array rebuilt per pass of :meth:`bulk_fill_many`
    #: (2 048 SA sets): bounds the prefill's temporaries, the same in
    #: both organizations
    PREFILL_CELLS = 30_720

    def __init__(self, geometry: DRAMCacheGeometry, organization: str = "sa"):
        organization = organization.lower()
        if organization not in ("sa", "dm"):
            raise ValueError(f"unknown organization {organization!r}")
        self.geometry = geometry
        self.organization = organization
        #: a plain attribute, not a property: the translator reads it on
        #: every tag-read completion
        self.is_direct_mapped = organization == "dm"
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
        # Prefer an invalid way; otherwise evict the LRU way (the first
        # minimum stamp: stamps are unique once a set is full).
        if -1 in seg:
            w = seg.index(-1)
        else:
            st = self._stamp[lo:lo + ways]
            w = st.index(min(st))
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
        tags; one loop then runs hit-refresh, invalid-way-first, the LRU
        victim choice and stamping inline.
        """
        n = len(addrs)
        if not n:
            return
        if not self._tags:
            self._allocate()
        self.fills += n
        n_sets, ways = self._num_sets, self._ways
        tags, dirty_col, stamp = self._tags, self._dirty, self._stamp
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
                        st = stamp[base:base + ways]
                        slot = base + st.index(min(st))
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
        inserts to sets < s) + k``.  A touched set ends as its valid
        entries followed by the batch's inserts, range by range; when
        that overflows the ways, the oldest ``max(0, valid + inserts -
        ways)`` are displaced (existing entries by stamp, then the
        earliest inserts; each dirty one counts as an eviction) and the
        existing survivors lie in stamp order instead of way order.  The
        survivors are packed from way 0.  A set no range touches keeps
        its contents, holes included.

        The array is rebuilt ``PREFILL_CELLS`` cells at a time, so every
        temporary is chunk-sized whatever the organization; existing
        entries are read only when the array was already populated.
        Inserted tags come from one table of shared int objects (a
        range's tags are the few values ``first // num_sets + k``) and
        existing entries keep their own, so the tag column never holds
        one int object per cell.
        """
        n_sets, ways = self._num_sets, self._ways
        # Per range: first surviving block, survivor count, dirty
        # fraction, seed and the clock before its first insert.
        runs: list[tuple[int, int, float, int, int]] = []
        clock = self._clock
        for start_addr, n_blocks, dirty_fraction, seed in fills:
            m = min(n_blocks, n_sets * ways)
            if m > 0:
                runs.append((start_addr // self._block_bytes + n_blocks - m,
                             m, dirty_fraction, seed, clock))
                clock += m
        if not runs:
            return
        populated = bool(self._tags)
        if not populated:
            self._allocate()
        # Code table of every tag the batch inserts (code 0: an invalid
        # way); block b of a range has code b // num_sets + base.
        values = [-1]
        bases = []
        for first, m, *_ in runs:
            low = first // n_sets
            bases.append(len(values) - low)
            values.extend(range(low, low + -(-m // n_sets) + 1))
        shared = np.array(values, dtype=object)

        def below(x: int, s: int) -> int:
            """Integers in [0, x) whose set (residue) is below s."""
            return x // n_sets * s + min(x % n_sets, s)

        tags = self._tags
        dirty_col = np.frombuffer(self._dirty, dtype=np.bool_)
        stamp_col = np.frombuffer(self._stamp, dtype=np.int64)
        per_chunk = max(1, self.PREFILL_CELLS // ways)
        evictions = 0
        for s0 in range(0, n_sets, per_chunk):
            s = np.arange(s0, min(s0 + per_chunk, n_sets), dtype=np.int64)
            # Each range's inserts per set: one modular comparison.
            counts = [m // n_sets + ((s - first) % n_sets < m % n_sets)
                      for first, m, *_ in runs]
            total = sum(counts, np.zeros_like(s))
            if not total.any():
                continue
            lo, hi = s0 * ways, (s0 + len(s)) * ways
            dirty, stamp = dirty_col[lo:hi], stamp_col[lo:hi]
            if populated:
                old = np.array(tags[lo:hi], dtype=object)
                valid = (old.astype(np.int64) != -1).reshape(-1, ways)
                n_valid = valid.sum(axis=1)
                over = np.maximum(n_valid + total - ways, 0)
                cut = np.minimum(over, n_valid)[:, None]
                # Each valid entry's place among its set's: way order, or
                # stamp order in a set that overflows.  Less the displaced
                # count, that is its way; below 0 it is displaced.
                dest = np.cumsum(valid, axis=1) - 1
                ov = np.flatnonzero(over)
                if len(ov):
                    order = np.argsort(np.where(
                        valid[ov], stamp.reshape(-1, ways)[ov],
                        np.iinfo(np.int64).max), axis=1)
                    rank = np.empty_like(order)
                    np.put_along_axis(rank, order, np.arange(ways), axis=1)
                    dest[ov] = rank
                dest -= cut
                evictions += int(np.count_nonzero(
                    dirty.reshape(-1, ways) & valid & (dest < 0)))
                # Codes past the shared table point at the old entries.
                # Every cell starts as itself; touched sets are emptied
                # and their survivors packed from way 0.
                table = np.concatenate((shared, old))
                code = np.arange(len(shared), len(table), dtype=np.int64)
                touched = np.repeat(total > 0, ways)
                src = np.flatnonzero((valid & (dest >= 0)).ravel() & touched)
                dst = src - src % ways + dest.ravel()[src]
                moved = dirty[src], stamp[src]
                code[touched], dirty[touched], stamp[touched] = 0, False, 0
                code[dst] = len(shared) + src
                dirty[dst], stamp[dst] = moved
                way = n_valid - over          # way of the set's next insert
            else:
                table = shared
                code = np.zeros(hi - lo, dtype=np.int64)
                way = -np.maximum(total - ways, 0)
            cell = np.arange(0, hi - lo, ways)
            for (first, m, dirty_fraction, seed, clock0), n, base in zip(
                    runs, counts, bases):
                if not n.any():
                    continue
                k = np.arange(-(-m // n_sets), dtype=np.int64)[:, None]
                # The k-th insert of set s; a way below 0 is displaced.
                block = first + (s - first) % n_sets + k * n_sets
                drt = _dirty_bits(block, seed, dirty_fraction)
                live = k < n
                wk = way + k
                keep = live & (wk >= 0)
                kept_dirty = drt[keep]
                evictions += (int(np.count_nonzero(drt & live))
                              - int(np.count_nonzero(kept_dirty)))
                slot = (cell + wk)[keep]
                code[slot] = (block // n_sets + base)[keep]
                dirty[slot] = kept_dirty
                # The range's inserts to sets below s come first.
                ahead = below(first + m, s0) - below(first, s0)
                stamp[slot] = (clock0 + 1 + ahead + np.cumsum(n) - n
                               + k)[keep]
                way = way + n
            tags[lo:hi] = table[code].tolist()
        self._clock = clock
        self.dirty_evictions += evictions

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
