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

from repro.core.access import Access
from repro.core.base import BaseController


class CDController(BaseController):
    """Route by access type; serve reads first; passive write flushing."""

    design = "CD"

    def _route(self, access: Access) -> bool:
        return access.is_write
