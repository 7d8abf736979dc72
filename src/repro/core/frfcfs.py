"""FR-FCFS: first-ready, first-come-first-served scheduling.

The classic row-hit-first baseline.  Provided as an alternative underlying
scheduler (the paper's designs all run on BLISS, but notes "our scheme is
not limited to any scheduling algorithm" — swapping this in demonstrates
that claim and is exercised by the ablation benchmark).

FR-FCFS is BLISS with nobody ever blacklisted: row hit first, then
oldest.  So it is a :class:`~repro.core.bliss.BLISSScheduler` whose
``on_served`` only counts, and BLISS's selection loop serves both.
"""

from __future__ import annotations

from repro.core.bliss import BLISSScheduler


class FRFCFSScheduler(BLISSScheduler):
    """Row-hit-first, then oldest.  Application-blind."""

    __slots__ = ()

    def on_served(self, core_id: int) -> None:
        """Count the served request; the blacklist stays all-False."""
        self.served += 1
