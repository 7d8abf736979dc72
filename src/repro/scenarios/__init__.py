"""Scenario sweep engine: declarative grids, sharding, resumable runs.

``repro.scenarios`` turns a declarative :class:`SweepSpec` — any
cross-product of RunSpec knobs (design, organization, scheduler, remap,
workloads/mixes) and dotted ``SystemConfig`` paths (queue depth, channel
count, watermarks) — into concrete :class:`repro.experiments.common.RunSpec`
points and executes them through the existing ResultStore/process-pool
machinery, with

* **sharding** — ``shard=(i, n)`` deterministically splits a grid across
  machines;
* **checkpointed resume** — every completed point lands in the result
  cache as it finishes, so an interrupted sweep re-run completes from
  where it stopped with finished points served from cache.

Entry points: the :func:`run_sweep` API and the ``dca-repro sweep`` CLI
(:mod:`repro.scenarios.cli`).  See DESIGN.md "Scenario sweep engine".
"""

from repro.scenarios.spec import SweepPoint, SweepSpec, parse_axis_value
from repro.scenarios.executor import PointOutcome, SweepOutcome, run_sweep

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepOutcome",
    "PointOutcome",
    "run_sweep",
    "parse_axis_value",
]
