"""Miss-status holding registers (MSHRs) for the shared L2.

MSHRs give the L2 its memory-level parallelism: each entry tracks one
outstanding block miss; additional requests to the same block *coalesce*
onto the existing entry instead of issuing duplicate DRAM-cache requests.
When the file is full, new misses stall at the L2 (the core model sees the
stall as back-pressure).

The file is **capacity-partitioned** between demand misses and prefetches
(Sniper's ``m_prefetch_mshr`` contention model): demand entries draw from
``capacity`` slots, prefetch entries from a separate ``prefetch_capacity``
pool, so speculative traffic can never stall a demand miss.  A demand
miss that finds an in-flight prefetch entry coalesces onto it (the
prefetch was issued in time to help, but *late* — see
:mod:`repro.mem.prefetch` for the accounting).

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
                "prefetch_allocations", "prefetch_rejects",
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
    is_prefetch: bool = False  # allocated from the prefetch partition
    promoted: bool = False     # prefetch entry later hit by a demand miss


class MSHRFile:
    """Bounded set of outstanding block misses with coalescing.

    ``capacity`` bounds demand entries; ``prefetch_capacity`` bounds the
    separate prefetch partition (0 disables prefetch allocation).
    """

    def __init__(self, capacity: int, prefetch_capacity: int = 0):
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        if prefetch_capacity < 0:
            raise ValueError("prefetch MSHR capacity must be >= 0")
        self.capacity = capacity
        self.prefetch_capacity = prefetch_capacity
        self._entries: dict[int, MSHREntry] = {}
        self._demand_used = 0
        self._prefetch_used = 0
        self.stats = MSHRStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Demand partition full (prefetch slots don't admit demand)."""
        return self._demand_used >= self.capacity

    @property
    def demand_free(self) -> int:
        """Free demand slots — how many stalled cores a fill may wake."""
        return self.capacity - self._demand_used

    def lookup(self, block_addr: int) -> Optional[MSHREntry]:
        return self._entries.get(block_addr)

    def allocate(self, block_addr: int, now: int, is_write: bool = False,
                 retry: bool = False) -> tuple[Optional[MSHREntry], bool]:
        """Allocate or coalesce a demand miss.

        Returns ``(entry, fresh)``: ``fresh`` is True when a new entry was
        created (the caller must issue the DRAM-cache request exactly
        then).  Returns ``(None, False)`` when the demand partition is
        full — counting one stall unless this is the ``retry`` of an op
        already counted when it was first held.
        """
        entry = self._entries.get(block_addr)
        if entry is not None:
            self.stats.coalesced += 1
            entry.any_write = entry.any_write or is_write
            return entry, False
        if self._demand_used >= self.capacity:
            if not retry:
                self.stats.full_stalls += 1
            return None, False
        entry = MSHREntry(block_addr, now, any_write=is_write)
        self._entries[block_addr] = entry
        self._demand_used += 1
        self.stats.allocations += 1
        return entry, True

    def allocate_prefetch(self, block_addr: int,
                          now: int) -> Optional[MSHREntry]:
        """Allocate a prefetch entry, or None when speculation must drop.

        Prefetches never coalesce (the issuer checks :meth:`lookup`
        first) and never stall anything: a full prefetch partition — or a
        file with no partition at all — just rejects the candidate.
        """
        if self._prefetch_used >= self.prefetch_capacity:
            self.stats.prefetch_rejects += 1
            return None
        entry = MSHREntry(block_addr, now, is_prefetch=True)
        self._entries[block_addr] = entry
        self._prefetch_used += 1
        self.stats.prefetch_allocations += 1
        return entry

    def complete(self, block_addr: int,
                 now: Optional[int] = None) -> MSHREntry:
        """Remove the entry on fill; the caller notifies ``entry.waiters``.

        With ``now``, a completing demand entry accumulates its miss
        latency (``now - issued_at``) into the sum/max stats — the
        system passes its clock so results report real L2 miss latency.
        """
        entry = self._entries.pop(block_addr, None)
        if entry is None:
            raise KeyError(f"no MSHR entry for block {block_addr:#x}")
        if entry.is_prefetch:
            self._prefetch_used -= 1
        else:
            self._demand_used -= 1
            if now is not None:
                st = self.stats
                lat = now - entry.issued_at
                st.demand_fills += 1
                st.demand_latency_sum_ps += lat
                if lat > st.demand_latency_max_ps:
                    st.demand_latency_max_ps = lat
        return entry
