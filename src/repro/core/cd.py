"""CD — the Conventional Design (paper §III-A).

The straight extension of a conventional DRAM controller to a DRAM cache:
accesses are routed purely by *access type* (bus reads to the read queue,
bus writes to the write queue), and the read queue is always served first.

This minimises bus turnarounds (all queued reads batch together, all
writes batch in flush episodes), but it is blind to *request* type: a tag
read belonging to a writeback (RTw) competes in the read queue with — and
can row-conflict against — the tag/data reads of demand reads.  The paper
names the two resulting pathologies **read priority inversion** and
**read-read conflicts (RRC)**; both are measured by this implementation
(see ``ControllerStats.read_priority_inversions`` and the channel row
stats).
"""

from __future__ import annotations

from typing import Optional

from repro.core.access import Access
from repro.core.base import BaseController
from repro.core.queues import AccessQueue


class CDController(BaseController):
    """Route by access type; serve reads first; passive write flushing."""

    design = "CD"

    def _route(self, access: Access) -> str:
        return "write" if access.is_write else "read"

    def _select(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        self._flush_exit_check(ch)
        self._flush_enter_forced(ch)
        if self.flushing[ch]:
            picked = self._pick_write(ch)
            if picked is not None:
                return picked
            self.flushing[ch] = False  # queue emptied mid-flush
        picked = self._continue_opportunistic(ch)
        if picked is not None:
            return picked
        picked = self._pick_read(ch, self.read_q[ch].classes)
        if picked is not None:
            return picked
        # No reads pending: drain writes opportunistically above the low
        # watermark (the paper's two-threshold passive scheme).
        return self._start_opportunistic(ch)
