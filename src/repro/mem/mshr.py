"""Miss-status holding registers (MSHRs) for the shared L2.

MSHRs give the L2 its memory-level parallelism: each entry tracks one
outstanding block miss; additional requests to the same block *coalesce*
onto the existing entry instead of issuing duplicate DRAM-cache requests.
When the file is full, new misses stall at the L2 (the core model sees the
stall as back-pressure).

Stall accounting is per held operation, not per attempt: a core whose op
was rejected parks it and retries when the system signals a freed slot
(``retry=True``), and the retry never double-counts — ``full_stalls``
equals the number of operations that ever had to wait, which is the
invariant tests/test_mshr_wakeup.py pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.metrics.registry import MetricGroup, derived


class LoadWaiter(Protocol):
    """Anything that can be told a load miss completed (a core)."""

    def load_done(self, token: int) -> None:
        """The load identified by ``token`` has its data."""


class MSHRStats(MetricGroup):
    """Counters of the shared MSHR file.

    ``demand_latency_max_ps`` is a running maximum, not a sum — the group
    is a per-system singleton that is never rolled up, so the
    sum-``merge`` semantics of :class:`MetricGroup` never apply to it.
    """

    COUNTERS = ("allocations", "coalesced", "full_stalls",
                "demand_fills", "demand_latency_sum_ps",
                "demand_latency_max_ps")

    @derived
    def mean_demand_latency_ps(self) -> float:
        if not self.demand_fills:
            return 0.0
        return self.demand_latency_sum_ps / self.demand_fills


@dataclass
class MSHREntry:
    block_addr: int
    issued_at: int
    #: (waiter, token) pairs notified on fill
    waiters: list[tuple[LoadWaiter, int]] = field(default_factory=list)
    any_write: bool = False    # a coalesced store: fill dirty


class MSHRFile:
    """Bounded set of outstanding block misses with coalescing.

    ``capacity`` bounds the number of entries.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, MSHREntry] = {}
        self.stats = MSHRStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free(self) -> int:
        """Free slots — how many stalled cores a fill may wake."""
        return self.capacity - len(self._entries)

    def lookup(self, block_addr: int) -> Optional[MSHREntry]:
        return self._entries.get(block_addr)

    def allocate(self, block_addr: int, now: int, is_write: bool = False,
                 retry: bool = False) -> tuple[Optional[MSHREntry], bool]:
        """Allocate or coalesce a miss.

        Returns ``(entry, fresh)``: ``fresh`` is True when a new entry was
        created (the caller must issue the DRAM-cache request exactly
        then).  Returns ``(None, False)`` when the file is full —
        counting one stall unless this is the ``retry`` of an op already
        counted when it was first held.
        """
        entry = self._entries.get(block_addr)
        if entry is not None:
            self.stats.coalesced += 1
            entry.any_write = entry.any_write or is_write
            return entry, False
        if len(self._entries) >= self.capacity:
            if not retry:
                self.stats.full_stalls += 1
            return None, False
        entry = MSHREntry(block_addr, now, any_write=is_write)
        self._entries[block_addr] = entry
        self.stats.allocations += 1
        return entry, True

    def complete(self, block_addr: int, now: int) -> MSHREntry:
        """Remove the entry on fill; the caller notifies ``entry.waiters``.

        The entry's miss latency (``now - issued_at``) accumulates into
        the sum/max stats, so results report real L2 miss latency.
        """
        entry = self._entries.pop(block_addr, None)
        if entry is None:
            raise KeyError(f"no MSHR entry for block {block_addr:#x}")
        st = self.stats
        lat = now - entry.issued_at
        st.demand_fills += 1
        st.demand_latency_sum_ps += lat
        if lat > st.demand_latency_max_ps:
            st.demand_latency_max_ps = lat
        return entry
