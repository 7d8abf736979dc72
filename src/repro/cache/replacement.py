"""Pluggable victim selection for the SRAM caches and the DRAM cache.

Three policies (gem5's LRU variants), selected by name from
``REPLACEMENT_POLICIES`` in :mod:`repro.config`:

* ``"lru"`` — plain least-recently-used (the historical behaviour; the
  default's victim choice is computed exactly as before, so default
  configs stay bit-identical to the pre-policy goldens).
* ``"lruc"`` — clean-preferred LRU: evict the LRU *clean* way when one
  exists (a clean victim costs no writeback), falling back to plain LRU
  when the whole set is dirty.
* ``"lrud"`` — dirty-preferred LRU: evict the LRU *dirty* way when one
  exists, harvesting writebacks early so they reach the write buffer /
  Lee batcher in bursts instead of trickling.

Two call conventions, one per cache organisation:

* **SRAM** (:mod:`repro.mem.sram`): a set is an insertion-ordered
  ``{tag: dirty}`` dict whose key order is the LRU order (least recent
  first); the policy returns the victim *tag*.  So ``lru`` is the first
  key, and ``lruc``/``lrud`` are the first clean/dirty key.
* **DRAM cache** (:mod:`repro.cache.dramcache`): the policy gets one
  set's slices of the flat tag, dirty (0/1) and stamp columns and
  returns the victim *way index*.  The caller fills invalid ways first —
  policies only see full sets.  Both organizations use this convention;
  a direct-mapped set is a one-way slice, so every policy returns 0.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Sequence

SRAMVictimFn = Callable[[Mapping[int, bool]], int]
SAVictimFn = Callable[[Sequence[int], Sequence[int], Sequence[int]], int]


# -- SRAM caches (LRU-ordered {tag: dirty} sets) --------------------------------


def _sram_lru(s: Mapping[int, bool]) -> int:
    return next(iter(s))


def _sram_lru_clean(s: Mapping[int, bool]) -> int:
    for tag, dirty in s.items():
        if not dirty:
            return tag
    return next(iter(s))


def _sram_lru_dirty(s: Mapping[int, bool]) -> int:
    for tag, dirty in s.items():
        if dirty:
            return tag
    return next(iter(s))


SRAM_POLICIES: Mapping[str, SRAMVictimFn] = MappingProxyType({
    "lru": _sram_lru,
    "lruc": _sram_lru_clean,
    "lrud": _sram_lru_dirty,
})


# -- DRAM cache (structure-of-arrays sets, either organisation) -----------------


def _sa_lru(tags: Sequence[int], dirty: Sequence[int],
            stamp: Sequence[int]) -> int:
    return stamp.index(min(stamp))


def _sa_lru_clean(tags: Sequence[int], dirty: Sequence[int],
                  stamp: Sequence[int]) -> int:
    best = -1
    best_stamp = -1
    for w, d in enumerate(dirty):
        if not d and (best < 0 or stamp[w] < best_stamp):
            best, best_stamp = w, stamp[w]
    return best if best >= 0 else _sa_lru(tags, dirty, stamp)


def _sa_lru_dirty(tags: Sequence[int], dirty: Sequence[int],
                  stamp: Sequence[int]) -> int:
    best = -1
    best_stamp = -1
    for w, d in enumerate(dirty):
        if d and (best < 0 or stamp[w] < best_stamp):
            best, best_stamp = w, stamp[w]
    return best if best >= 0 else _sa_lru(tags, dirty, stamp)


SA_POLICIES: Mapping[str, SAVictimFn] = MappingProxyType({
    "lru": _sa_lru,
    "lruc": _sa_lru_clean,
    "lrud": _sa_lru_dirty,
})
