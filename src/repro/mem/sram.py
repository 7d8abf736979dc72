"""On-chip SRAM caches (private L1s, shared L2).

A functional set-associative, write-back, write-allocate cache with true
LRU.  Sets are materialised lazily (simulated footprints touch a sparse
subset) and each is an insertion-ordered ``{tag: dirty}`` dict whose key
order *is* the LRU order: a hit pops its key and re-inserts it, a fill
appends, so the first key is the least recently used.  The hit path (the
L1/L2 front of every simulated memory operation) is one hash probe, and
there are no access stamps and no clock: the victim is the first key.
The cache is purely functional — latency is charged by the caller (core
model / system wiring) so that the same class serves both levels.

The functional replays (the system's warm-up and the Fig. 18 tag
stream) reference whole traces: :meth:`SRAMCache.filter_traces` runs
that loop with the LRU inlined and returns the misses and, sparsely,
their dirty victims as int64 columns, and :func:`interleave` orders
them into one request column.

An optional *dirty-row index* supports Lee et al.'s DRAM-aware writeback
policy (Fig. 19): it tracks, per DRAM-cache row, which dirty blocks the
cache currently holds, so an eviction can be batched with other dirty
blocks bound for the same row (see :mod:`repro.mem.llc_writeback`).
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.typing import NDArray

from repro.config import CacheGeometry
from repro.metrics.registry import MetricGroup, derived


class SRAMCacheStats(MetricGroup):
    COUNTERS = ("accesses", "hits", "evictions", "dirty_evictions",
                "clean_evictions")

    @derived
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SRAMCache:
    """Set-associative true-LRU cache; returns the victim on allocating
    misses."""

    def __init__(self, geom: CacheGeometry,
                 row_of: Optional[Callable[[int], int]] = None):
        self.geom = geom
        self.num_sets = geom.num_sets
        self.block = geom.block_bytes
        self._assoc = geom.assoc
        # set idx -> {tag: dirty}, keys in LRU order (least recent first)
        self._sets: dict[int, dict[int, bool]] = {}
        self.stats = SRAMCacheStats()
        # Optional Lee-writeback support: addr -> DRAM row, and the index.
        self._row_of = row_of
        self._dirty_rows: dict[int, set[int]] = {}

    # -- address helpers ----------------------------------------------------------

    def _set_of(self, addr: int) -> int:
        return (addr // self.block) % self.num_sets

    def _tag_of(self, addr: int) -> int:
        return (addr // self.block) // self.num_sets

    def _addr_of(self, set_idx: int, tag: int) -> int:
        return (tag * self.num_sets + set_idx) * self.block

    # -- dirty-row index ------------------------------------------------------------

    def _track_dirty(self, addr: int) -> None:
        if self._row_of is not None:
            self._dirty_rows.setdefault(self._row_of(addr), set()).add(addr)

    def _untrack_dirty(self, addr: int) -> None:
        if self._row_of is not None:
            row = self._row_of(addr)
            blocks = self._dirty_rows.get(row)
            if blocks is not None:
                blocks.discard(addr)
                if not blocks:
                    del self._dirty_rows[row]

    def dirty_in_row(self, row: int) -> list[int]:
        """Dirty block addresses currently mapping to DRAM row ``row``."""
        return sorted(self._dirty_rows.get(row, ()))

    # -- operations -----------------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Hit check without state change."""
        s = self._sets.get(self._set_of(addr))
        return s is not None and self._tag_of(addr) in s

    def touch(self, addr: int, is_write: bool) -> bool:
        """Reference without allocating on a miss (allocate-on-fill mode).

        On a hit, LRU and dirty state update as usual; on a miss the cache
        is unchanged — the caller tracks the miss in an MSHR and calls
        :meth:`fill` when the data arrives.
        """
        self.stats.accesses += 1
        blk = addr // self.block
        s = self._sets.get(blk % self.num_sets)
        if s is not None:
            tag = blk // self.num_sets
            dirty = s.pop(tag, None)
            if dirty is not None:
                self.stats.hits += 1
                if is_write and not dirty:
                    dirty = True
                    self._track_dirty(addr)
                s[tag] = dirty          # re-insert: now most recent
                return True
        return False

    def access(self, addr: int, is_write: bool) -> tuple[bool, Optional[int]]:
        """Reference ``addr``; allocate on miss.

        Returns ``(hit, dirty_victim_addr)``.  ``dirty_victim_addr`` is the
        block address of a dirty line displaced by this access (the caller
        turns it into a writeback request), or None.  One call leaves the
        state a :meth:`touch` followed, on a miss, by a :meth:`fill`
        leaves; only ``stats.accesses`` counts the miss once, not twice.
        """
        stats = self.stats
        stats.accesses += 1
        blk = addr // self.block
        set_idx = blk % self.num_sets
        tag = blk // self.num_sets
        s = self._sets.get(set_idx)
        if s is None:
            s = self._sets[set_idx] = {}
        else:
            dirty = s.pop(tag, None)
            if dirty is not None:
                stats.hits += 1
                if is_write and not dirty:
                    dirty = True
                    self._track_dirty(addr)
                s[tag] = dirty          # re-insert: now most recent
                return True, None
        # Miss: allocate (write-allocate for stores too).
        victim_addr = None
        if len(s) >= self._assoc:
            vtag = next(iter(s))        # least recently used
            stats.evictions += 1
            if s.pop(vtag):
                stats.dirty_evictions += 1
                victim_addr = self._addr_of(set_idx, vtag)
                self._untrack_dirty(victim_addr)
            else:
                stats.clean_evictions += 1
        s[tag] = is_write
        if is_write:
            self._track_dirty(addr)
        return False, victim_addr

    def filter_traces(self, traces: Iterable[Iterator[tuple]],
                      per_trace: int
                      ) -> tuple[NDArray[np.int64], NDArray[np.int64],
                                 NDArray[np.int64]]:
        """Reference ``per_trace`` operations of each trace in turn.

        Each ``(gap, addr, is_write, pc)`` operation is drawn from its
        iterator (a :class:`~repro.workloads.cursor.TraceCursor` counts
        it) and referenced exactly as :meth:`access` would, with the LRU
        inlined.  Returns three int64 columns: the missed block addresses,
        one row per miss; and, one row per dirty eviction (most misses
        have none), the row of the miss whose allocation displaced the
        dirty line, in ascending order, and that line's block address.
        """
        block, n_sets, assoc = self.block, self.num_sets, self._assoc
        sets = self._sets
        tracked = self._row_of is not None
        # Dirty victims are rare: they are kept as (row, address) pairs.
        misses, victim_rows, victim_addrs = array("q"), array("q"), array("q")
        add_miss = misses.append
        hits = dirty_evictions = clean_evictions = 0
        for trace in traces:
            for _gap, addr, is_write, _pc in islice(trace, per_trace):
                blk = addr // block
                set_idx = blk % n_sets
                tag = blk // n_sets
                s = sets.get(set_idx)
                if s is None:
                    s = sets[set_idx] = {}
                else:
                    dirty = s.pop(tag, None)
                    if dirty is not None:
                        hits += 1
                        if is_write and not dirty:
                            dirty = True
                            if tracked:
                                self._track_dirty(blk * block)
                        s[tag] = dirty          # re-insert: now most recent
                        continue
                if len(s) >= assoc:
                    vtag = next(iter(s))
                    if s.pop(vtag):
                        dirty_evictions += 1
                        victim = (vtag * n_sets + set_idx) * block
                        victim_rows.append(len(misses))
                        victim_addrs.append(victim)
                        if tracked:
                            self._untrack_dirty(victim)
                    else:
                        clean_evictions += 1
                s[tag] = is_write
                addr = blk * block
                if is_write and tracked:
                    self._track_dirty(addr)
                add_miss(addr)
        stats = self.stats
        stats.accesses += hits + len(misses)
        stats.hits += hits
        stats.evictions += dirty_evictions + clean_evictions
        stats.dirty_evictions += dirty_evictions
        stats.clean_evictions += clean_evictions
        return (np.frombuffer(misses, dtype=np.int64),
                np.frombuffer(victim_rows, dtype=np.int64),
                np.frombuffer(victim_addrs, dtype=np.int64))

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Insert a block (refill path); returns a dirty victim address."""
        hit, victim = self.access(addr, dirty)
        return victim

    def clean(self, addr: int) -> bool:
        """Clear the dirty bit (Lee's eager writeback cleans lines in place).

        Returns True if the line was present and dirty.  The line keeps
        its LRU position.
        """
        s = self._sets.get(self._set_of(addr))
        if s is None:
            return False
        tag = self._tag_of(addr)
        if s.get(tag):
            s[tag] = False              # existing key: order unchanged
            self._untrack_dirty(addr)
            return True
        return False

    def invalidate(self, addr: int) -> bool:
        s = self._sets.get(self._set_of(addr))
        if s is None:
            return False
        dirty = s.pop(self._tag_of(addr), None)
        if dirty is None:
            return False
        if dirty:
            self._untrack_dirty(addr)
        return True

    def dirty_count(self) -> int:
        """Number of dirty lines (O(cache); tests only)."""
        return sum(1 for s in self._sets.values() for d in s.values() if d)

    # -- warm-state hooks (see repro/snapshot.py and DESIGN.md) ---------------

    def capture_state(self) -> dict[str, Any]:
        """Independent copy of contents (LRU order) + dirty-row index.

        SRAM caches are small (thousands of lines), so an eager copy is
        cheap; the copy is fully detached — donor and restored caches
        never share mutable structure.  Stats are *not* captured: every
        warm-capture point in the system resets them anyway.
        """
        return {
            "sets": {k: dict(v) for k, v in self._sets.items()},
            "dirty_rows": {row: set(blocks)
                           for row, blocks in self._dirty_rows.items()},
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt contents captured by :meth:`capture_state` (re-copied, so
        one captured state serves any number of restores)."""
        # dict() copies keep key order, and key order is the LRU order.
        self._sets = {k: dict(v) for k, v in state["sets"].items()}
        self._dirty_rows = {row: set(blocks)
                            for row, blocks in state["dirty_rows"].items()}


def interleave(misses: NDArray[np.int64], victim_rows: NDArray[np.int64],
               victims: NDArray[np.int64], victims_first: bool = False
               ) -> tuple[NDArray[np.int64], NDArray[np.bool_]]:
    """One request column from :meth:`SRAMCache.filter_traces`' output.

    Each miss is followed (or, with ``victims_first``, preceded) by its
    dirty victim, if it has one: ``victims[j]`` belongs to miss
    ``victim_rows[j]`` (ascending).  Returns the addresses and a flag
    column marking the victims' writebacks.  Both are allocated once and
    filled in place; the other temporaries are a byte mask and
    victim-length index columns.
    """
    # The j-th victim lands j slots past its row (one more if it follows).
    slots = victim_rows + np.arange(len(victim_rows)) + (not victims_first)
    n = len(misses) + len(slots)
    is_victim = np.zeros(n, dtype=np.bool_)
    is_victim[slots] = True
    addrs = np.empty(n, dtype=np.int64)
    addrs[slots] = victims
    addrs[~is_victim] = misses
    return addrs, is_victim
