"""BLISS: the Blacklisting memory scheduler (Subramanian et al., 2015).

BLISS achieves application-aware scheduling with minimal state: it observes
the stream of *served* requests, and when one application is served
``blacklist_threshold`` (4) times in a row, that application is
**blacklisted**.  Scheduling priority is then:

1. non-blacklisted application first,
2. row-buffer hit first,
3. oldest first.

The blacklist is cleared wholesale every ``clearing_interval`` (10 us),
bounding unfairness without per-application rank computation.

The paper uses BLISS as the underlying scheduling algorithm of *all* the
evaluated controller designs (CD, ROD, DCA); the designs differ in which
candidate set they hand to BLISS at each slot, not in the ordering policy.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.config import BLISSConfig
from repro.core.access import Access
from repro.core.queues import BankBucket, FrozenBucket
from repro.dram.channel import Channel

#: Any bank-bucket column group the schedulers can scan.
BucketColumns = BankBucket | FrozenBucket

#: Sentinel above any real ``Access.seq`` (a monotonic counter).
_SEQ_MAX = 1 << 62


class BLISSScheduler:
    """Per-channel BLISS state + candidate selection."""

    __slots__ = ("cfg", "blacklist", "_last_core", "_streak", "_last_clear",
                 "served", "blacklist_events")

    def __init__(self, cfg: BLISSConfig, num_cores: int):
        self.cfg = cfg
        self.blacklist = [False] * num_cores
        self._last_core = -1
        self._streak = 0
        self._last_clear = 0
        self.served = 0
        self.blacklist_events = 0

    # -- bookkeeping -------------------------------------------------------------

    def maybe_clear(self, now: int) -> None:
        """Clear all blacklist bits every clearing interval."""
        if now - self._last_clear >= self.cfg.clearing_interval_ps:
            self.blacklist = [False] * len(self.blacklist)
            self._last_clear = now

    def on_served(self, core_id: int) -> None:
        """Observe one served request; blacklist on a long streak."""
        self.served += 1
        if core_id == self._last_core:
            self._streak += 1
            if self._streak >= self.cfg.blacklist_threshold:
                if not self.blacklist[core_id]:
                    self.blacklist[core_id] = True
                    self.blacklist_events += 1
                self._streak = 0
        else:
            self._last_core = core_id
            self._streak = 1

    # -- selection ---------------------------------------------------------------

    def pick_banked(self, buckets: "Mapping[int, BucketColumns]",
                    channel: Channel, now: int) -> Optional[Access]:
        """Choose the highest-priority access among bank-bucketed candidates.

        ``buckets`` maps ``global_bank`` to a non-empty column bucket of
        accesses targeting that bank (the queue's incremental indexes, or
        any filtered subset keyed the same way).  Priority:
        non-blacklisted > row-hit > age (global ``seq``); returns None
        when ``buckets`` is empty.  The open row is fetched once per
        bank — ``global_bank % len(open_rows)`` is the channel-local bank
        index by construction of ``AddressMapper.global_bank`` — and the
        (blacklist, row-miss, seq) lexicographic order is evaluated as
        the oldest candidate per (blacklisted, row-miss) class over the
        bucket's flat int columns, returned in class order.  While no
        core is blacklisted, a bucket whose bank has no open row (or no
        hit on it) is a single-class group: its argmin batches into
        C-level ``min``/``index`` with no per-candidate bytecode at all.
        ``seq`` is globally unique, so the argmin is unique and iteration
        order is irrelevant; the lockstep tests check the result against
        a per-candidate scan of the flattened set.
        """
        self.maybe_clear(now)
        bl = self.blacklist
        # SoA hot path: one list index per bucket fetches the open row
        # (-1 = closed, which no real row id equals — the None check the
        # object model needed disappears).
        open_rows = channel.open_rows
        nbanks = len(open_rows)
        any_bl = True in bl
        # Oldest candidate per (blacklisted, row-miss) class; returning the
        # first non-empty class in 00 < 01 < 10 < 11 order is exactly the
        # (blacklist, row-miss, seq) lexicographic minimum, with no tuple
        # or big-int key allocation in the inner loop.
        b_hit = b_miss = b_bl_hit = b_bl_miss = None
        s_hit = s_miss = s_bl_hit = s_bl_miss = _SEQ_MAX
        for gb, bucket in buckets.items():
            open_row = open_rows[gb % nbanks]
            seqs = bucket.seqs
            rows = bucket.rows
            if not any_bl:
                if open_row < 0 or open_row not in rows:
                    m = min(seqs)          # pure-miss bucket: one class
                    if m < s_miss:
                        s_miss = m
                        b_miss = bucket.accs[seqs.index(m)]
                    continue
                for i in range(len(seqs)):
                    s = seqs[i]
                    if rows[i] == open_row:
                        if s < s_hit:
                            s_hit = s
                            b_hit = bucket.accs[i]
                    elif s < s_miss:
                        s_miss = s
                        b_miss = bucket.accs[i]
                continue
            cores = bucket.cores
            for i in range(len(seqs)):
                s = seqs[i]
                if bl[cores[i]]:
                    if rows[i] == open_row:
                        if s < s_bl_hit:
                            s_bl_hit = s
                            b_bl_hit = bucket.accs[i]
                    elif s < s_bl_miss:
                        s_bl_miss = s
                        b_bl_miss = bucket.accs[i]
                elif rows[i] == open_row:
                    if s < s_hit:
                        s_hit = s
                        b_hit = bucket.accs[i]
                elif s < s_miss:
                    s_miss = s
                    b_miss = bucket.accs[i]
        if b_hit is not None:
            return b_hit
        if b_miss is not None:
            return b_miss
        return b_bl_hit if b_bl_hit is not None else b_bl_miss
