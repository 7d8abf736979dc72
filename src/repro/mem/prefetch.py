"""L2 hardware prefetchers feeding the DRAM cache.

A prefetcher is a pure candidate generator: the system trains it on every
L2 demand access (:meth:`Prefetcher.on_access`) and on every fill
completion (:meth:`Prefetcher.on_fill`), and it answers with block
addresses worth fetching speculatively.  Issue policy — L2/MSHR
duplicate filtering, the prefetch-partition capacity check, the
low-priority request class — lives in ``System._issue_prefetches``, so
one accounting path serves every prefetcher kind.

Two kinds to start (the Sniper ``DramCache`` exemplar models exactly
this split):

* **next-line** — on a demand miss, fetch the next ``degree`` sequential
  blocks; on any fill, extend the stream by one more line, so a
  sequential miss stream keeps the prefetcher running ahead of it
  (tagged next-line prefetching).
* **stride-per-PC** — a table keyed by load PC tracking (last address,
  stride, confidence); once the same stride repeats ``min_confidence``
  times, fetch ``degree`` strides ahead.  The table is
  direct-mapped by PC hash with ``table_entries`` slots.

Usefulness accounting (in :class:`PrefetchStats`, mounted as
``metrics["prefetch"]``): ``useful`` counts prefetched blocks a demand
access later found (in the L2, or still in flight), ``late`` the subset
that was still in flight when the demand arrived — issued in time to
help, too late to hide the full latency.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.config import PrefetchConfig
from repro.metrics.registry import MetricGroup, derived


class PrefetchStats(MetricGroup):
    COUNTERS = ("issued", "useful", "late", "drops_mshr", "drops_present")

    @derived
    def accuracy(self) -> float:
        """Fraction of issued prefetches a demand access ever wanted."""
        return self.useful / self.issued if self.issued else 0.0


class Prefetcher(Protocol):
    """Candidate generator contract both prefetcher kinds implement."""

    def on_access(self, addr: int, pc: int, hit: bool) -> Sequence[int]:
        """Train on a demand access; return candidate block addresses."""

    def on_fill(self, addr: int) -> Sequence[int]:
        """React to a completed L2 fill; return candidate addresses."""


class NextLinePrefetcher:
    """Sequential next-``degree``-blocks prefetcher (miss- and fill-tagged)."""

    def __init__(self, block_bytes: int, degree: int = 1):
        self._block = block_bytes
        self._degree = degree

    def on_access(self, addr: int, pc: int, hit: bool) -> Sequence[int]:
        if hit:
            return ()
        b = self._block
        return [addr + b * k for k in range(1, self._degree + 1)]

    def on_fill(self, addr: int) -> Sequence[int]:
        # Extending on fills keeps a sequential stream ahead of the
        # demand misses instead of re-triggering off each one.
        return [addr + self._block * self._degree]


class StridePrefetcher:
    """Per-PC stride table with a confidence threshold."""

    def __init__(self, block_bytes: int, degree: int = 1,
                 table_entries: int = 64, min_confidence: int = 2):
        self._block = block_bytes
        self._degree = degree
        self._entries = table_entries
        self._min_conf = min_confidence
        #: pc-hash slot -> [pc, last_addr, stride, confidence]
        self._table: dict[int, list[int]] = {}

    def on_access(self, addr: int, pc: int, hit: bool) -> Sequence[int]:
        slot = pc % self._entries
        row = self._table.get(slot)
        if row is None or row[0] != pc:
            self._table[slot] = [pc, addr, 0, 0]
            return ()
        stride = addr - row[1]
        row[1] = addr
        if stride == 0:
            return ()
        if stride == row[2]:
            row[3] += 1
        else:
            row[2] = stride
            row[3] = 1
        if row[3] < self._min_conf:
            return ()
        return [addr + stride * k for k in range(1, self._degree + 1)]

    def on_fill(self, addr: int) -> Sequence[int]:
        return ()   # stride streams are driven by the access pattern alone


def make_prefetcher(cfg: PrefetchConfig, block_bytes: int) -> Prefetcher:
    """Build the configured prefetcher (``cfg.kind`` must not be "none")."""
    if cfg.kind == "nextline":
        return NextLinePrefetcher(block_bytes, degree=cfg.degree)
    if cfg.kind == "stride":
        return StridePrefetcher(block_bytes, degree=cfg.degree,
                                table_entries=cfg.table_entries,
                                min_confidence=cfg.min_confidence)
    raise ValueError(f"no prefetcher for kind {cfg.kind!r}")
