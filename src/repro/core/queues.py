"""Controller access queues with watermark state and scheduling indexes.

One :class:`AccessQueue` holds the accesses waiting to be scheduled on one
channel's bus for one direction class (the designs differ in *what* they
route here — see cd/rod/dca modules).  Capacity applies to *admission of
new requests*: continuation accesses of an in-flight request (the RD/WT
that follow a completed tag read) always fit, mirroring how real
controllers reserve slots for request continuations to avoid deadlock.

Scheduling index
----------------
Every queued access lives in exactly one :class:`BankBucket`, the one of
its (priority class, global bank, core).  The queue keeps one dict per
:class:`~repro.core.access.Priority` class (``classes[PR]``,
``classes[LR]``, ``classes[WRITE]``), each mapping a packed
``global_bank << CORE_BITS | core_id`` key to its bucket.  A bucket's
columns (``accs`` / ``seqs`` / ``rows``) are kept in ascending ``seq``
order, so:

* ``seqs[0]`` is the bucket's oldest access;
* ``rows.index(open_row)`` is its oldest row hit;
* every member shares the bucket's blacklist state (one core) and the
  bank's open row (one bank),

which lets ``BLISSScheduler.pick_banked`` classify a whole bucket with
C-level list operations and no per-entry loop.  A **view** is a tuple
of class dicts: ``classes`` itself (every queued access) or ``pr_view``
(the PR class alone); DCA's OFS filter builds a one-dict view of its
own.  Emptied buckets are dropped, so views hold only non-empty ones.

Pushes almost always arrive in ``seq`` order (an append); the rare late
one is placed by bisection.  Removal bisects too, then checks identity.
See DESIGN.md, "Indexed scheduling fast path".
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Iterator

from repro.core.access import Access, Priority

_PR = Priority.PR

#: Low bits of a bucket key that hold the core id (``gb << CORE_BITS |
#: core``); ``BaseController`` rejects configs with more cores.
CORE_BITS = 16

#: One class dict: packed (global bank, core) key -> bucket.
ClassBuckets = Dict[int, "BankBucket"]


def bucket_key(global_bank: int, core_id: int) -> int:
    """The class-dict key of the (global bank, core) bucket (``push``
    and ``remove`` inline the same expression)."""
    return global_bank << CORE_BITS | core_id


class BankBucket:
    """The queued accesses of one (class, global bank, core), as columns.

    ``accs[i]`` / ``seqs[i]`` / ``rows[i]`` describe one access; the
    columns are strictly increasing in ``seq``.  ``gb`` and ``core`` are
    shared by every member.  Iteration yields the accesses oldest first.
    """

    __slots__ = ("gb", "core", "accs", "seqs", "rows")

    def __init__(self, gb: int, core: int, accs: list[Access],
                 seqs: list[int], rows: list[int]) -> None:
        self.gb = gb
        self.core = core
        self.accs = accs
        self.seqs = seqs
        self.rows = rows

    def __len__(self) -> int:
        return len(self.accs)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accs)


class AccessQueue:
    """A bounded scheduling pool (not FIFO: schedulers pick by policy)."""

    __slots__ = ("capacity", "classes", "pr_view", "size")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        #: one bucket dict per Priority class, indexed by the class value;
        #: the tuple itself is the every-access view
        self.classes: tuple[ClassBuckets, ClassBuckets, ClassBuckets] = (
            {}, {}, {})
        #: the PR-class view (DCA's normal read slot)
        self.pr_view: tuple[ClassBuckets] = (self.classes[_PR],)
        #: queued accesses (``len(queue)``; the controller's hot path
        #: reads the slot and skips the ``__len__`` call)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Access]:
        """The queued accesses, oldest (least ``seq``) first."""
        return iter(sorted((a for buckets in self.classes
                            for bucket in buckets.values() for a in bucket),
                           key=attrgetter("seq")))

    def __contains__(self, access: Access) -> bool:
        bucket = self.classes[access.priority].get(
            bucket_key(access.global_bank, access.core_id))
        if bucket is None:
            return False
        i = bisect_left(bucket.seqs, access.seq)
        return i < len(bucket.accs) and bucket.accs[i] is access

    @property
    def occupancy(self) -> float:
        """Fill fraction; may exceed 1.0 transiently via continuations."""
        return self.size / self.capacity

    def has_room(self) -> bool:
        """Admission check for *new* requests."""
        return self.size < self.capacity

    def push(self, access: Access) -> None:
        """Add an access (continuations may exceed nominal capacity)."""
        seq = access.seq
        gb = access.global_bank
        core = access.core_id
        key = gb << CORE_BITS | core
        buckets = self.classes[access.priority]
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = BankBucket(gb, core, [access], [seq], [access.row])
        else:
            seqs = bucket.seqs
            if seq > seqs[-1]:
                bucket.accs.append(access)
                seqs.append(seq)
                bucket.rows.append(access.row)
            else:
                # A late arrival (an access built before one already
                # queued here): keep the columns in seq order.
                i = bisect_left(seqs, seq)
                if seqs[i] == seq:
                    raise ValueError(f"seq {seq} is already queued")
                bucket.accs.insert(i, access)
                seqs.insert(i, seq)
                bucket.rows.insert(i, access.row)
        self.size += 1

    def remove(self, access: Access) -> None:
        key = access.global_bank << CORE_BITS | access.core_id
        buckets = self.classes[access.priority]
        bucket = buckets.get(key)
        if bucket is not None:
            accs = bucket.accs
            if len(accs) == 1:
                if accs[0] is access:
                    del buckets[key]
                    self.size -= 1
                    return
            else:
                seqs = bucket.seqs
                i = bisect_left(seqs, access.seq)
                if i < len(accs) and accs[i] is access:
                    del accs[i]
                    del seqs[i]
                    del bucket.rows[i]
                    self.size -= 1
                    return
        raise ValueError("access not in queue")

    # -- self-checks (tests only; O(n)) -----------------------------------------

    def check_invariants(self) -> None:
        """Assert the bucket index is coherent (test hook)."""
        total = 0
        for prio, buckets in zip(Priority, self.classes):
            for key, bucket in buckets.items():
                assert bucket.accs, f"{prio.name}: empty bucket {key}"
                assert key == bucket_key(bucket.gb, bucket.core), prio.name
                n = len(bucket.accs)
                assert len(bucket.seqs) == n and len(bucket.rows) == n
                for i, a in enumerate(bucket.accs):
                    assert a.priority == prio, prio.name
                    assert a.global_bank == bucket.gb, prio.name
                    assert a.core_id == bucket.core, prio.name
                    assert bucket.seqs[i] == a.seq, prio.name
                    assert bucket.rows[i] == a.row, prio.name
                    if i:
                        assert bucket.seqs[i - 1] < a.seq, prio.name
                total += n
        assert total == self.size
