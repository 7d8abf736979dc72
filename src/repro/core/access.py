"""The vocabulary of DRAM-cache requests and DRAM accesses (paper Fig. 2).

A **request** is what the L2 sends the DRAM-cache controller: a cache read
(demand miss), a cache writeback (dirty eviction), or a cache refill (block
arriving from main memory).  A **access** is one DRAM array operation the
request translates into:

    read request (set-assoc):  RTr -> [hit] RDr + WTr
    writeback / refill:        RTw -> WDw + WTw (+ RDw if the victim is dirty)
    read request (direct-mapped): one TAD read
    writeback / refill (dm):   TAD read -> TAD write

The **role** names (``RT``/``RD``/``WT``/``WD`` with request-type subscript)
follow the paper's Figs. 4-7.  The controller designs differ only in which
queue each access is routed to and in what priority class it is served
(DCA's PR/LR split), so those attributes live on the access itself.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Optional


class RequestType(IntEnum):
    """What the L2 asked for."""

    READ = 0        # demand fetch (critical path)
    WRITEBACK = 1   # dirty eviction from L2
    REFILL = 2      # block returning from main memory into the cache


class AccessRole(IntEnum):
    """Which array operation this access performs.

    The two roles that drive the bus in read mode have the lowest values:
    :class:`Access` classifies a role with one ``role <= DATA_READ``.
    """

    TAG_READ = 0    # RT* : read a tag block (or TAD in direct-mapped)
    DATA_READ = 1   # RD* : read a data block
    TAG_WRITE = 2   # WT* : write a tag block (replacement bits / tag insert)
    DATA_WRITE = 3  # WD* : write a data block (or TAD in direct-mapped)


class Priority(IntEnum):
    """DCA's read-access classes (paper §IV-B).

    PR — priority reads: tag/data reads belonging to cache-read requests
    (the critical path).  LR — low-priority reads: tag reads belonging to
    writeback and refill requests.  Write accesses carry ``WRITE`` for
    uniform bookkeeping.
    """

    PR = 0
    LR = 1
    WRITE = 2


# Members bound once: a lookup such as ``Priority.PR`` goes through the
# enum metaclass on every evaluation, a bound name does not.
_READ = RequestType.READ
_DATA_READ = AccessRole.DATA_READ
_PR = Priority.PR
_LR = Priority.LR
_WRITE = Priority.WRITE


#: ``(channel, rank, bank, row, col, global_bank)``, as
#: :meth:`repro.dram.address.AddressMapper.coordinates` returns them
Coordinates = tuple[int, int, int, int, int, int]

#: ``CacheRequest.tag_coords`` before the translator sets it
NO_COORDS: Coordinates = (-1, -1, -1, -1, -1, -1)


class CacheRequest:
    """One L2-level request to the DRAM cache.

    Besides the request itself it carries the controller's per-request
    state: the DRAM coordinates of its tag structure (decoded once, at
    the tag read, and shared by its later accesses), MAP-I's
    ``pred_miss``/``probing`` flags and early ``mem_data_ready``
    arrival, and a dirty-victim writeback's deferred ``pending_writes``
    and ``victim_addr``.
    """

    __slots__ = ("rtype", "addr", "core_id", "pc", "arrival", "done_time",
                 "on_done", "hit", "accesses_left", "tag_coords",
                 "pred_miss", "probing", "mem_data_ready", "pending_writes",
                 "victim_addr")

    def __init__(self, rtype: RequestType, addr: int, core_id: int,
                 pc: int = 0, arrival: int = 0,
                 on_done: Optional[Callable[["CacheRequest"], None]] = None):
        self.rtype = rtype
        self.addr = addr
        self.core_id = core_id
        self.pc = pc
        self.arrival = arrival
        self.done_time: int = -1
        self.on_done = on_done
        self.hit: Optional[bool] = None   # resolved at tag-read completion
        self.accesses_left = 0            # live accesses gating completion
        self.tag_coords = NO_COORDS       # set by Translator.initial_access
        self.pred_miss = False            # MAP-I predicted a miss
        self.probing = False              # memory fetched before the tag check
        self.mem_data_ready = False       # ... and its data already returned
        #: writes held behind a dirty victim's data read
        self.pending_writes: Optional[list["Access"]] = None
        self.victim_addr: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheRequest({self.rtype.name}, addr={self.addr:#x}, "
                f"core={self.core_id}, t={self.arrival})")


class Access:
    """One DRAM array access; the unit the controller schedules."""

    __slots__ = ("role", "request", "channel", "rank", "bank", "row",
                 "global_bank", "seq", "priority", "critical", "core_id",
                 "is_write")

    def __init__(self, role: AccessRole, request: CacheRequest,
                 coords: Coordinates, seq: int, critical: bool = True):
        self.role = role
        self.request = request
        # The column is dropped: a request's accesses share its tag's
        # coordinates (Translator._make), and no scheduler reads it.
        (self.channel, self.rank, self.bank, self.row, _col,
         self.global_bank) = coords
        # Age tiebreak for the schedulers, drawn from the per-system
        # Translator counter (never a class global: systems sharing a
        # process must not share numbering).
        self.seq = seq
        # Flattened from the owning request: the scheduler inner loop reads
        # this per candidate, and a slot is much cheaper than a property.
        self.core_id = request.core_id
        #: completion of this access gates the request's completion
        self.critical = critical
        # Priority class per DCA's taxonomy; identical labels are kept for
        # CD/ROD so stats can distinguish inverted reads there too.
        if role <= _DATA_READ:
            # A tag or data read: a demand read's is PR, a refill's or
            # writeback's LR.
            self.priority = _PR if request.rtype == _READ else _LR
            # Flattened like core_id: does this access drive the bus in
            # write mode?  Read per scheduling decision and per issue, so
            # a slot beats recomputing the role test as a property.
            self.is_write = False
        else:
            self.priority = _WRITE
            self.is_write = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Access({self.role.name}, {self.priority.name}, "
                f"ch{self.channel} b{self.bank} r{self.row})")
