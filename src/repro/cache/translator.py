"""Request -> access translation (paper Fig. 2).

The translator turns an L2-level cache request into the staged sequence of
DRAM array accesses the controller must schedule, consulting the functional
tag array at tag-read completion time to decide the hit/miss leg:

=====================  ==========================================
request                accesses (set-associative)
=====================  ==========================================
cache read             RTr ; on hit -> RDr + WTr
cache writeback        RTw ; on hit -> WDw + WTw
                       on miss -> [RDw victim if dirty ->] WDw + WTw
cache refill           identical to writeback (insert clean)
=====================  ==========================================

=====================  ==========================================
request                accesses (direct-mapped / Alloy)
=====================  ==========================================
cache read             one TAD read (tag+data in a single burst)
cache writeback/refill TAD read ; -> TAD write (victim data, if
                       dirty, arrived with the TAD read)
=====================  ==========================================

The translator is pure policy: it builds :class:`~repro.core.access.Access`
objects with their array coordinates but does not touch queues or timing.
It decodes a request's coordinates once, at its tag read: every later
access of the request lies in the same DRAM row (the tag block and data
ways of a set share one, and the mapper's column bits are the lowest),
so it differs only in the column, which no access keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Optional

from repro.cache.dramcache import DRAMCacheArray
from repro.core.access import Access, AccessRole, CacheRequest, RequestType
from repro.dram.address import AddressMapper

# Members bound once (see repro.core.access).
_READ = RequestType.READ
_WRITEBACK = RequestType.WRITEBACK
_TAG_READ = AccessRole.TAG_READ
_DATA_READ = AccessRole.DATA_READ
_TAG_WRITE = AccessRole.TAG_WRITE
_DATA_WRITE = AccessRole.DATA_WRITE


@dataclass(slots=True)
class TagOutcome:
    """What the controller must do after a request's tag read completes."""

    hit: bool
    #: accesses to enqueue now (already routed through the address mapper)
    next_accesses: list[Access] = field(default_factory=list)
    #: a dirty-victim data read that must complete before the writes issue
    victim_read: Optional[Access] = None
    #: block address whose data must be written to main memory (dirty victim)
    victim_mem_write: Optional[int] = None


class Translator:
    """Builds access plans against one organization + address mapping."""

    def __init__(self, array: DRAMCacheArray, mapper: AddressMapper):
        self.array = array
        self.mapper = mapper
        self._coordinates = mapper.coordinates
        _check_set_rows(array, mapper)
        # Per-system access age counter (the schedulers' final tiebreak).
        # Owned here, not by the Access class, so two systems run in one
        # process (warm forks, pool workers) never interleave their
        # sequence numbers.
        self._seq = 0

    # -- access construction ----------------------------------------------------

    def _make(self, role: AccessRole, req: CacheRequest,
              critical: bool = True) -> Access:
        """A follow-on access of ``req``, at its tag's coordinates."""
        self._seq += 1
        return Access(role, req, req.tag_coords, self._seq, critical)

    # -- stage 1 ------------------------------------------------------------------

    def initial_access(self, req: CacheRequest) -> Access:
        """The tag read that begins every request.

        In the direct-mapped organization a *read* request's tag read is the
        TAD read itself (tag and data return together), so a read hit
        finishes with this single access.  Records the tag's coordinates
        on the request: its later accesses share them.
        """
        req.tag_coords = coords = self._coordinates(
            self.array.tag_location(req.addr))
        self._seq += 1
        return Access(_TAG_READ, req, coords, self._seq)

    # -- stage 2 ------------------------------------------------------------------

    def after_tag_read(self, req: CacheRequest) -> TagOutcome:
        """Resolve hit/miss functionally and build the follow-on accesses."""
        if req.rtype == _READ:
            return self._after_read_tag(req)
        return self._after_write_tag(req)

    def _after_read_tag(self, req: CacheRequest) -> TagOutcome:
        res = self.array.lookup_read(req.addr)
        req.hit = res.hit
        if not res.hit:
            return TagOutcome(hit=False)
        if self.array.is_direct_mapped:
            # TAD read already returned the data; no further access.
            return TagOutcome(hit=True)
        data = self._make(_DATA_READ, req)
        # Replacement-bit update; off the critical path.
        tagw = self._make(_TAG_WRITE, req, critical=False)
        return TagOutcome(hit=True, next_accesses=[data, tagw])

    def _after_write_tag(self, req: CacheRequest) -> TagOutcome:
        """Writeback / refill: update in place on hit, allocate on miss."""
        res = self.array.lookup_write(req.addr)
        req.hit = res.hit
        dirty_insert = req.rtype == _WRITEBACK
        if res.hit:
            victim_mem_write = None
            victim_read = None
        else:
            fill = self.array.fill(req.addr, dirty=dirty_insert)
            victim_mem_write = (fill.victim_block_addr
                                if fill.victim_dirty else None)
            victim_read = None
            if fill.victim_dirty and not self.array.is_direct_mapped:
                # RDw: the victim's data must be read before it is
                # overwritten (paper Fig. 2).  In the direct-mapped
                # organization the TAD read already returned it.
                victim_read = self._make(_DATA_READ, req)

        if self.array.is_direct_mapped:
            # One TAD write carries tag+data together.
            writes = [self._make(_DATA_WRITE, req)]
        else:
            writes = [self._make(_DATA_WRITE, req),
                      self._make(_TAG_WRITE, req)]
        return TagOutcome(hit=res.hit, next_accesses=writes,
                          victim_read=victim_read,
                          victim_mem_write=victim_mem_write)

    # -- static shape helpers (used by tests and the Fig. 18 study) -------------

    def accesses_per_read_hit(self) -> int:
        """How many array accesses a read hit costs (3 SA, 1 DM)."""
        return 1 if self.array.is_direct_mapped else 3

    def accesses_per_writeback_hit(self) -> int:
        """How many array accesses a writeback hit costs (3 SA, 2 DM)."""
        return 2 if self.array.is_direct_mapped else 3


def _check_set_rows(array: DRAMCacheArray, mapper: AddressMapper) -> None:
    """Reject a layout that splits a set across DRAM rows.

    A byte address's coordinates other than the column are a function of
    ``addr // row_bytes``, and the layout repeats every
    ``lcm(row_bytes, layout row)`` bytes, so checking the sets of one
    period covers them all.
    """
    if array.is_direct_mapped:
        return      # a set is one TAD: tag and data share an address
    row = mapper.org.row_bytes
    layout = array.geometry.row_bytes
    period = lcm(row, layout) // layout * array.sa.sets_per_row
    for s in range(min(period, array.sa.num_sets)):
        tag = array.tag_location_of_set(s)
        if any((tag + off) // row != tag // row
               for off in array.data_offsets):
            raise ValueError(
                f"set {s} spans two {row}-byte DRAM rows: the cache "
                f"layout needs a set's tag and data blocks in one row")
