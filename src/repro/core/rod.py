"""ROD — the Request-Oriented Design (paper §III-B).

Accesses are routed by *request type*: everything belonging to a cache
read goes to the read queue; everything belonging to a writeback or refill
— including their **tag reads** (RTw) — goes to the write queue.  The one
exception (paper footnote 1) is the tag *write* of a read request, which
goes to the write queue for performance.

This eliminates read priority inversion and most RRC by construction, but
the write queue now holds a mixture of bus reads and bus writes: draining
it bounces the bus direction back and forth (turnaround storms), and the
RTw work that CD performed opportunistically during read idle time is now
deferred until a flush — so flushes are longer and delay subsequent reads.
Table II gives ROD a 32-entry read queue and a 96-entry write queue (the
write queue carries more access types).
"""

from __future__ import annotations

from repro.core.access import Access, AccessRole, RequestType
from repro.core.base import BaseController

# Members bound once (see repro.core.access).
_READ = RequestType.READ
_TAG_WRITE = AccessRole.TAG_WRITE


class RODController(BaseController):
    """Route by request type; serve the read queue first."""

    design = "ROD"

    def _route(self, access: Access) -> bool:
        # Footnote 1: a read's WTr goes to the write queue even in ROD.
        return (access.request.rtype != _READ
                or access.role == _TAG_WRITE)
