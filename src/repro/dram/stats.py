"""Counters collected by the DRAM substrate.

The evaluation section of the paper reports three substrate-level metrics:

* **accesses per turnaround** (Figs. 14, 15) — read+write accesses divided
  by the number of bus direction switches;
* **row-buffer hit rate for reads** (Figs. 16, 17);
* bus busy time (used internally for sanity checks).

``ChannelStats`` tracks these per channel as a
:class:`repro.metrics.registry.MetricGroup`; the shared base supplies
``reset``/``merge``/``sum``/``snapshot``, and :class:`derived` metrics are
recomputed from counters on demand (so they survive aggregation).
"""

from __future__ import annotations

from repro.metrics.registry import MetricGroup, derived


class ChannelStats(MetricGroup):
    """Per-channel substrate counters.  All counters are monotonically
    increasing; :meth:`reset` zeroes them after warm-up."""

    COUNTERS = (
        "read_accesses",
        "write_accesses",
        "turnarounds",
        "read_row_hits",
        "read_row_closed",
        "read_row_conflicts",
        "write_row_hits",
        "write_row_closed",
        "write_row_conflicts",
        "bus_busy_ps",
        "rank_switches",   # bursts targeting a different rank than the last
    )

    @derived
    def total_accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @derived
    def accesses_per_turnaround(self) -> float:
        """Figs. 14/15 metric; the higher the better."""
        if self.turnarounds == 0:
            return float(self.total_accesses)
        return self.total_accesses / self.turnarounds

    @derived
    def read_row_hit_rate(self) -> float:
        """Figs. 16/17 metric: fraction of read accesses hitting an open row."""
        total = self.read_row_hits + self.read_row_closed + self.read_row_conflicts
        if total == 0:
            return 0.0
        return self.read_row_hits / total


class CommandChannelStats(ChannelStats):
    """Counters of the command-level substrate model.

    A strict superset of :class:`ChannelStats`: only channels built at
    ``fidelity="command"`` carry these, so burst-fidelity metric
    snapshots (and the golden pins over them) keep their exact key set.
    """

    COUNTERS = ChannelStats.COUNTERS + (
        "refreshes_issued",      # refresh cycles performed (per rank, summed)
        "refreshes_postponed",   # refreshes that started after their due time
        "faw_stalls",            # ACTs delayed by the four-ACT tFAW window
        "rrd_stalls",            # ACTs delayed by same-rank tRRD spacing
        "refresh_stalls",        # ACTs delayed by a tRFC rank blackout
    )

    @derived
    def refresh_postpone_rate(self) -> float:
        """Fraction of refreshes that could not start on time."""
        if self.refreshes_issued == 0:
            return 0.0
        return self.refreshes_postponed / self.refreshes_issued


class RankStats(MetricGroup):
    """Per-rank counters of the command-level substrate model.

    Command-fidelity channels with more than one rank publish one group
    per rank (``ch{i}_rank{j}`` in the device registry) so rank-level
    imbalance — activation pressure, refresh debt, throttling — is
    observable per rank, not just as a channel aggregate.  Single-rank
    channels publish none: the channel totals already *are* the rank,
    and the default metric tree keeps its exact key set (golden pins).
    """

    COUNTERS = (
        "acts",                  # row activations on this rank
        "refreshes_issued",
        "refreshes_postponed",
        "rrd_stalls",
        "faw_stalls",
        "refresh_stalls",
    )

    @derived
    def act_stall_rate(self) -> float:
        """Fraction of ACTs delayed by a rank-level constraint."""
        if self.acts == 0:
            return 0.0
        return (self.rrd_stalls + self.faw_stalls
                + self.refresh_stalls) / self.acts
