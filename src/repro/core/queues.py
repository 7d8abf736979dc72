"""Controller access queues with watermark state and scheduling indexes.

One :class:`AccessQueue` holds the accesses waiting to be scheduled on one
channel's bus for one direction class (the designs differ in *what* they
route here — see cd/rod/dca modules).  Capacity applies to *admission of
new requests*: continuation accesses of an in-flight request (the RD/WT
that follow a completed tag read) always fit, mirroring how real
controllers reserve slots for request continuations to avoid deadlock.

Scheduling indexes
------------------
Every push/remove incrementally maintains three index structures so the
per-slot scheduling decision never rescans the whole pool:

* a **position map** (``access -> index`` into ``entries``) making removal
  O(1) via swap-pop;
* **per-priority partitions** — insertion-ordered sets of the PR and LR
  read classes, giving O(1) ``pr_count``/``lr_count`` and O(k) views;
* **per-bank buckets** (``global_bank -> `` :class:`BankBucket`) for all
  entries and for each read class, so row-hit classification is done once
  per *bank* instead of once per *access* and DCA's OFS candidate set is
  a bucket walk instead of a full-queue filter.

Buckets are **struct-of-arrays**: each keeps the scheduler-relevant
fields of its members (``seqs`` / ``rows`` / ``cores``) as parallel flat
lists alongside the access objects, mirroring the channel's SoA bank
state.  ``pick_banked`` scans those int columns — the candidate-readiness
classification (row hit? blacklisted? age) batches into list index math
per bank with no per-candidate attribute chases, and only the winning
index dereferences an ``Access``.

Swap-pop perturbs the order of ``entries`` and of the bucket columns,
which is safe because every selection policy in this codebase totally
orders candidates with the globally unique ``Access.seq`` as the final
tiebreak: the argmin is unique, hence independent of iteration order
(see DESIGN.md, "Indexed scheduling fast path").
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.core.access import Access, Priority


class BankBucket:
    """Same-bank candidates as parallel columns (one slot per access).

    ``accs[i]`` / ``seqs[i]`` / ``rows[i]`` / ``cores[i]`` describe one
    queued access; removal is swap-pop on all four columns at once.
    The scheduler fast paths read the int columns directly; iteration
    yields the access objects (order is scan order, not age — safe, see
    module docstring).
    """

    __slots__ = ("accs", "seqs", "rows", "cores", "_pos")

    def __init__(self) -> None:
        self.accs: list[Access] = []
        self.seqs: list[int] = []
        self.rows: list[int] = []
        self.cores: list[int] = []
        self._pos: Dict[Access, int] = {}

    def __len__(self) -> int:
        return len(self.accs)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accs)

    def __contains__(self, access: Access) -> bool:
        return access in self._pos

    def add(self, access: Access) -> None:
        self._pos[access] = len(self.accs)
        self.accs.append(access)
        self.seqs.append(access.seq)
        self.rows.append(access.row)
        self.cores.append(access.core_id)

    def discard(self, access: Access) -> bool:
        """Swap-pop ``access`` out of every column; True when emptied."""
        accs = self.accs
        idx = self._pos.pop(access)
        last = accs.pop()
        last_seq = self.seqs.pop()
        last_row = self.rows.pop()
        last_core = self.cores.pop()
        if last is not access:
            accs[idx] = last
            self.seqs[idx] = last_seq
            self.rows[idx] = last_row
            self.cores[idx] = last_core
            self._pos[last] = idx
        return not accs

    def row_hits(self, open_row: int) -> "FrozenBucket":
        """Filtered copy keeping only candidates whose row is ``open_row``.

        Used by DCA's OFS filter when a bank admits only its safe (row
        hit) candidates; the result is a read-only column group the
        schedulers consume exactly like a live bucket.
        """
        accs = self.accs
        cores = self.cores
        seqs = self.seqs
        keep = [i for i, row in enumerate(self.rows) if row == open_row]
        return FrozenBucket([accs[i] for i in keep],
                            [seqs[i] for i in keep],
                            [open_row] * len(keep),
                            [cores[i] for i in keep])


class FrozenBucket:
    """Read-only column group (a filtered view of a :class:`BankBucket`)."""

    __slots__ = ("accs", "seqs", "rows", "cores")

    def __init__(self, accs: list[Access], seqs: list[int],
                 rows: list[int], cores: list[int]) -> None:
        self.accs = accs
        self.seqs = seqs
        self.rows = rows
        self.cores = cores

    def __len__(self) -> int:
        return len(self.accs)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accs)


class AccessQueue:
    """A bounded scheduling pool (not FIFO: schedulers pick by policy)."""

    __slots__ = ("capacity", "entries", "_pos", "_pr", "_lr",
                 "_banks", "_pr_banks", "_lr_banks",
                 "_occupancy_integral", "_last_t", "_t0")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.entries: list[Access] = []
        #: access -> index into ``entries`` (O(1) membership + removal)
        self._pos: Dict[Access, int] = {}
        # Insertion-ordered sets (dicts with None values): per-priority
        # partitions of the read classes.  Buckets are column stores.
        self._pr: Dict[Access, None] = {}
        self._lr: Dict[Access, None] = {}
        self._banks: Dict[int, BankBucket] = {}
        self._pr_banks: Dict[int, BankBucket] = {}
        self._lr_banks: Dict[int, BankBucket] = {}
        # time-weighted occupancy, for average-occupancy reporting
        self._occupancy_integral = 0
        self._last_t = 0
        self._t0 = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.entries)

    def __contains__(self, access: Access) -> bool:
        return access in self._pos

    @property
    def occupancy(self) -> float:
        """Fill fraction; may exceed 1.0 transiently via continuations."""
        return len(self.entries) / self.capacity

    def has_room(self) -> bool:
        """Admission check for *new* requests."""
        return len(self.entries) < self.capacity

    def push(self, access: Access, now: int = 0) -> None:
        """Add an access (continuations may exceed nominal capacity)."""
        self._account(now)
        entries = self.entries
        self._pos[access] = len(entries)
        entries.append(access)
        gb = access.global_bank
        bucket = self._banks.get(gb)
        if bucket is None:
            bucket = self._banks[gb] = BankBucket()
        bucket.add(access)
        prio = access.priority
        if prio == Priority.PR:
            self._pr[access] = None
            pb = self._pr_banks.get(gb)
            if pb is None:
                pb = self._pr_banks[gb] = BankBucket()
            pb.add(access)
        elif prio == Priority.LR:
            self._lr[access] = None
            lb = self._lr_banks.get(gb)
            if lb is None:
                lb = self._lr_banks[gb] = BankBucket()
            lb.add(access)

    def remove(self, access: Access, now: int = 0) -> None:
        self._account(now)
        try:
            idx = self._pos.pop(access)
        except KeyError:
            raise ValueError("access not in queue") from None
        entries = self.entries
        last = entries.pop()
        if last is not access:        # swap-pop: O(1), order-insensitive
            entries[idx] = last
            self._pos[last] = idx
        gb = access.global_bank
        if self._banks[gb].discard(access):
            del self._banks[gb]
        prio = access.priority
        if prio == Priority.PR:
            del self._pr[access]
            if self._pr_banks[gb].discard(access):
                del self._pr_banks[gb]
        elif prio == Priority.LR:
            del self._lr[access]
            if self._lr_banks[gb].discard(access):
                del self._lr_banks[gb]

    # -- occupancy accounting ---------------------------------------------------

    def _account(self, now: int) -> None:
        if now > self._last_t:
            self._occupancy_integral += len(self.entries) * (now - self._last_t)
            self._last_t = now

    def reset_accounting(self, now: int) -> None:
        """Restart the time-weighted occupancy integral at ``now``.

        Called at the warm-up boundary so :meth:`mean_occupancy` reports
        the measured interval only, not warm-up traffic from t=0.
        """
        self._occupancy_integral = 0
        self._last_t = now
        self._t0 = now

    def mean_occupancy(self, now: int) -> float:
        """Time-averaged entry count since construction or the last
        :meth:`reset_accounting`."""
        self._account(now)
        span = now - self._t0
        return self._occupancy_integral / span if span > 0 else 0.0

    # -- index accessors (the scheduling fast path) -----------------------------

    @property
    def pr_count(self) -> int:
        """Queued PR-class (demand-read) accesses, O(1)."""
        return len(self._pr)

    @property
    def lr_count(self) -> int:
        """Queued LR-class (writeback/refill tag-read) accesses, O(1)."""
        return len(self._lr)

    def bank_buckets(self) -> Dict[int, BankBucket]:
        """``global_bank -> column bucket`` over **all** entries.

        Read-only view of live internal state: callers must not mutate it,
        and must not push/remove while iterating.
        """
        return self._banks

    def pr_bank_buckets(self) -> Dict[int, BankBucket]:
        """Per-bank buckets restricted to PR-class accesses (read-only)."""
        return self._pr_banks

    def lr_bank_buckets(self) -> Dict[int, BankBucket]:
        """Per-bank buckets restricted to LR-class accesses (read-only)."""
        return self._lr_banks

    # -- read-class copies (inspection; the designs read the buckets) -----------

    def priority_reads(self) -> list[Access]:
        return list(self._pr)

    def low_priority_reads(self) -> list[Access]:
        return list(self._lr)

    # -- self-checks (tests only; O(n)) -----------------------------------------

    def check_invariants(self) -> None:
        """Assert every index is consistent with ``entries`` (test hook)."""
        assert len(self._pos) == len(self.entries)
        for i, a in enumerate(self.entries):
            assert self._pos[a] == i
        prs = [a for a in self.entries if a.priority == Priority.PR]
        lrs = [a for a in self.entries if a.priority == Priority.LR]
        assert set(self._pr) == set(prs) and len(self._pr) == len(prs)
        assert set(self._lr) == set(lrs) and len(self._lr) == len(lrs)
        for name, index, universe in (
                ("banks", self._banks, self.entries),
                ("pr_banks", self._pr_banks, prs),
                ("lr_banks", self._lr_banks, lrs)):
            flat = [a for bucket in index.values() for a in bucket]
            assert len(flat) == len(universe), name
            assert set(flat) == set(universe), name
            for gb, bucket in index.items():
                assert bucket, f"{name}: empty bucket {gb}"
                assert all(a.global_bank == gb for a in bucket), name
                # Column coherence: every parallel lane describes its
                # access, and the position map inverts the layout.
                for i, a in enumerate(bucket.accs):
                    assert bucket.seqs[i] == a.seq, name
                    assert bucket.rows[i] == a.row, name
                    assert bucket.cores[i] == a.core_id, name
                    assert bucket._pos[a] == i, name
