"""DCA — the DRAM-Cache-Aware controller (paper §IV).

DCA keeps CD's queue mapping (bus reads in the read queue, bus writes in
the write queue) so turnarounds stay rare, but teaches the read-queue
scheduler about *request* type:

* **PR (priority reads)** — tag/data reads of cache-read requests: served
  in every normal scheduling slot (BLISS order).
* **LR (low-priority reads)** — tag reads of writeback/refill requests:
  *held* in the read queue like a write queue, drained only when safe.

LRs drain through two mechanisms (paper Algorithm 1 + §IV-C):

1. **Occupancy hysteresis** — if read-queue occupancy exceeds 85 %,
   ``ScheduleAll`` turns on and every read (PR and LR) is eligible until
   occupancy falls below 75 %.
2. **OFS (Opportunistic Flushing Scheme)** — when no PR is pending, an LR
   may issue if its bank shows no row conflict (row hit or closed row), or
   if the bank's RRPC counter has decayed below the flushing factor
   (FF-4): no priority read has touched that bank recently, so the LR is
   unlikely to steal a row a PR is about to reuse.

The RRPC table is updated **only by PRs** (paper §IV-C): on each PR issue
all bank counters decay by one and the PR's bank is set to 7.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.access import Access, Priority
from repro.core.base import BaseController
from repro.core.queues import AccessQueue, BankBucket
from repro.core.rrpc import RRPCTable

# Members bound once (see repro.core.access).
_PR = Priority.PR
_LR = Priority.LR


def ofs_bucket_filter(lr_buckets: Mapping[int, BankBucket],
                      open_rows: Sequence[int], rrpc: RRPCTable,
                      flushing_factor: int) -> dict[int, BankBucket]:
    """Apply the OFS criteria (§IV-C) per bucket over the LR class dict.

    A closed row (``open_rows[i] == -1`` in the channel's SoA columns) or
    a decayed RRPC counter admits a bucket whole — passed through *by
    reference*, no copy.  Otherwise only the bucket's row hits are safe,
    and of those only the oldest can ever be picked (the others share
    its core, hence its blacklist state, and its row), so the bucket
    contributes a one-entry bucket holding its oldest hit, or nothing.
    The bucket's channel-local bank is ``gb % len(open_rows)`` (see
    ``AddressMapper.global_bank``).  The result is keyed like the input,
    so ``(result,)`` is a view ``pick_banked`` takes.  The controller
    hot path calls it; the lockstep tests drive it directly against a
    per-access scan of the same criteria.
    """
    nbanks = len(open_rows)
    out: dict[int, BankBucket] = {}
    for key, bucket in lr_buckets.items():
        gb = bucket.gb
        open_row = open_rows[gb % nbanks]
        if open_row < 0 or rrpc.allows_flush(gb, flushing_factor):
            out[key] = bucket
        elif open_row in bucket.rows:
            i = bucket.rows.index(open_row)
            out[key] = BankBucket(gb, bucket.core, [bucket.accs[i]],
                                  [bucket.seqs[i]], [open_row])
    return out


class DCAController(BaseController):
    """CD's routing + PR/LR-aware read scheduling + OFS."""

    design = "DCA"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rrpc = RRPCTable(self.cfg.org.total_banks,
                              max_value=self.cfg.dca.rrpc_max)
        self.schedule_all = [False] * self.cfg.org.channels
        self._issue_hook = self._on_issued

    def _route(self, access: Access) -> bool:
        return access.is_write

    def _on_issued(self, access: Access) -> None:
        """Post-issue hook: PRs drive the RRPC table (§IV-C)."""
        if access.priority == _PR:
            self.rrpc.on_priority_read(access.global_bank)

    # -- Algorithm 1 ---------------------------------------------------------------

    def _update_schedule_all(self, ch: int) -> None:
        if self.draining:
            # End-of-run flush: held LRs must leave regardless of OFS.
            self.schedule_all[ch] = True
            return
        occ = self.read_q[ch].occupancy
        if occ > self.cfg.queues.lr_drain_high:
            self.schedule_all[ch] = True
        elif occ < self.cfg.queues.lr_drain_low:
            self.schedule_all[ch] = False

    def _ofs_buckets(self, ch: int) -> dict[int, BankBucket]:
        """LRs passing the OFS criteria (§IV-C) as buckets, from the LR
        class dict: one row-state and one RRPC check per *bucket*
        instead of per access.
        """
        return ofs_bucket_filter(self.read_q[ch].classes[_LR],
                                 self.device.channels[ch].open_rows,
                                 self.rrpc, self.cfg.dca.flushing_factor)

    def _select_read(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """PRs first; held LRs only under ScheduleAll or through OFS."""
        self._update_schedule_all(ch)
        rq = self.read_q[ch]
        if self.schedule_all[ch]:
            picked = self._pick_read(ch, rq.classes)
            if picked is not None and picked[0].priority == _LR:
                self.stats.lr_drain_issues += 1
            return picked
        picked = self._pick_read(ch, rq.pr_view)
        if picked is not None:
            return picked
        # Algorithm 1 line 15-18: no PR was ready -> OFS flush.
        picked = self._pick_read(ch, (self._ofs_buckets(ch),))
        if picked is not None:
            self.stats.lr_ofs_issues += 1
        return picked

    def _reads_preempt(self, ch: int) -> bool:
        """Only *priority* reads preempt an idle-time write drain: held LRs
        are background work like the writes themselves."""
        rq = self.read_q[ch]
        if self.schedule_all[ch]:
            return rq.size > 0
        return bool(rq.classes[_PR])
