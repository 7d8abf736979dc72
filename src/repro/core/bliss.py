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

from typing import Mapping, Optional, Sequence

from repro.config import BLISSConfig
from repro.core.access import Access
from repro.core.queues import BankBucket
from repro.dram.channel import Channel

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

    def pick_banked(self, view: Sequence[Mapping[int, BankBucket]],
                    channel: Channel, now: int) -> Optional[Access]:
        """Choose the highest-priority access among bucketed candidates.

        ``view`` is a tuple of class dicts (see ``repro.core.queues``):
        each maps a key to a non-empty bucket of one (global bank, core)
        whose columns are in ascending ``seq`` order.  Priority:
        non-blacklisted > row-hit > age (global ``seq``); returns None
        when every dict is empty.

        A bucket's members share one core (so one blacklist test) and
        one bank (so one open row, ``open_rows[gb % len(open_rows)]`` —
        the channel-local bank by construction of
        ``AddressMapper.global_bank``).  Age order makes
        ``rows.index(open_row)`` its oldest hit and ``seqs[0]`` its
        oldest entry, both found at C speed.  The pick is the first that
        exists of: the oldest non-blacklisted hit, the oldest
        non-blacklisted entry, the oldest blacklisted hit, the oldest
        blacklisted entry.  When a class has no hit, its oldest entry is
        a miss, so this is exactly the (blacklisted, row-miss, seq)
        lexicographic minimum; ``seq`` is globally unique, so the
        minimum is unique and bucket order is irrelevant.

        A bucket holding a hit offers only its hit: its own class then
        has a hit, which outranks that class's oldest entry.  With no
        core blacklisted (always, under FR-FCFS) the scan runs without
        the blacklist test.  The lockstep tests check the result against
        a per-candidate scan.
        """
        # The blacklist clears wholesale every clearing interval, first.
        if now - self._last_clear >= self.cfg.clearing_interval_ps:
            self.blacklist = [False] * len(self.blacklist)
            self._last_clear = now
        bl = self.blacklist
        # One list index per bucket fetches the open row (-1 = closed,
        # which no real row id equals).
        open_rows = channel.open_rows
        nbanks = len(open_rows)
        b_hit = b_old = None
        s_hit = s_old = _SEQ_MAX
        if True not in bl:
            for buckets in view:
                for bucket in buckets.values():
                    # Most buckets miss: their path binds no locals.
                    if open_rows[bucket.gb % nbanks] in bucket.rows:
                        i = bucket.rows.index(open_rows[bucket.gb % nbanks])
                        seq = bucket.seqs[i]
                        if seq < s_hit:
                            s_hit = seq
                            b_hit = bucket.accs[i]
                    elif bucket.seqs[0] < s_old:
                        s_old = bucket.seqs[0]
                        b_old = bucket.accs[0]
            return b_hit if b_hit is not None else b_old
        b_bl_hit = b_bl_old = None
        s_bl_hit = s_bl_old = _SEQ_MAX
        for buckets in view:
            for bucket in buckets.values():
                if open_rows[bucket.gb % nbanks] in bucket.rows:
                    i = bucket.rows.index(open_rows[bucket.gb % nbanks])
                    seq = bucket.seqs[i]
                    if bl[bucket.core]:
                        if seq < s_bl_hit:
                            s_bl_hit = seq
                            b_bl_hit = bucket.accs[i]
                    elif seq < s_hit:
                        s_hit = seq
                        b_hit = bucket.accs[i]
                elif bl[bucket.core]:
                    if bucket.seqs[0] < s_bl_old:
                        s_bl_old = bucket.seqs[0]
                        b_bl_old = bucket.accs[0]
                elif bucket.seqs[0] < s_old:
                    s_old = bucket.seqs[0]
                    b_old = bucket.accs[0]
        if b_hit is not None:
            return b_hit
        if b_old is not None:
            return b_old
        return b_bl_hit if b_bl_hit is not None else b_bl_old
