"""Sweep execution: shard selection, resumable runs, result surfacing.

:func:`run_sweep` drives a compiled :class:`~repro.scenarios.spec.SweepSpec`
through the same machinery the paper figures use — ``run_grid`` over a
process pool with a versioned :class:`ResultStore`.  The store is the
sweep's only checkpoint: ``run_grid`` writes each point's entry the moment
it finishes, so progress survives any interruption at point granularity
and a re-run serves every finished point from the cache.

Results are surfaced in the metrics-registry snapshot format: the sweep
artefact (``<out>/<name>/results.json``) carries, per point, the axis
assignment plus the full ``SystemResult`` cache dict — the same
schema-versioned payload the figure cache holds — so downstream tooling
needs exactly one result schema.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.common import (
    GridExecutionError,
    ResultStore,
    RunSpec,
    SimParams,
    atomic_write_json,
    format_table,
    run_grid,
)
from repro.scenarios.spec import SweepPoint, SweepSpec
from repro.sim.system import RESULT_SCHEMA_VERSION, SystemResult

#: Version of the sweep results.json payload (the per-point result dicts
#: inside are versioned separately by RESULT_SCHEMA_VERSION).
SWEEP_SCHEMA_VERSION = 1


class _RecordingStore(ResultStore):
    """ResultStore that records the key of every point it stores.

    Cache hits never reach ``store()``, so ``executed`` tells a point that
    ran from one served by the cache.
    """

    def __init__(self, cache_dir=None, enabled: bool = True):
        super().__init__(cache_dir, enabled=enabled)
        self.executed: list[str] = []

    def store(self, spec: RunSpec, params: SimParams,
              result: SystemResult) -> None:
        super().store(spec, params, result)
        self.executed.append(self.key(spec, params))


@dataclass
class PointOutcome:
    """One grid point's result, joined back to its axis assignment."""

    point: SweepPoint
    key: str
    result: Optional[SystemResult]     # None when the point failed
    executed: bool                     # False -> served from cache
    error: Optional[str] = None        # traceback summary when failed

    def to_dict(self) -> dict:
        out = {
            "axes": self.point.axis_dict(),
            "label": self.point.spec.label(),
            "key": self.key,
            "executed": self.executed,
        }
        if self.result is not None:
            # Full schema-versioned result payload, identical to a cache
            # entry: figures and sweep tooling read one schema.
            out["result"] = self.result.to_cache_dict()
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class SweepOutcome:
    """Everything one ``run_sweep`` invocation produced."""

    name: str
    sweep_id: str
    shard: tuple[int, int]
    points: list[PointOutcome]
    results_path: Path
    elapsed_s: float = 0.0

    @property
    def executed(self) -> int:
        return sum(p.executed for p in self.points)

    @property
    def cached(self) -> int:
        return sum(p.result is not None and not p.executed
                   for p in self.points)

    @property
    def failures(self) -> list[PointOutcome]:
        return [p for p in self.points if p.error is not None]

    def summary_table(self) -> str:
        axis_names = (list(self.points[0].point.axis_dict())
                      if self.points else [])
        headers = axis_names + ["ipc_sum", "read_lat_ns", "row_hit", "src"]
        rows = []
        for p in self.points:
            cells = [p.point.axis_dict()[a] for a in axis_names]
            if p.result is None:
                cells += ["-", "-", "-", "FAILED"]
            else:
                r = p.result
                cells += [f"{sum(r.ipcs):.3f}",
                          f"{r.mean_read_latency_ps / 1000:.1f}",
                          f"{r.read_row_hit_rate:.3f}",
                          "ran" if p.executed else "cache"]
            rows.append(cells)
        return format_table(headers, rows,
                            title=f"sweep {self.name} "
                                  f"[shard {self.shard[0] + 1}"
                                  f"/{self.shard[1]}]")

    def counts_line(self) -> str:
        return (f"{len(self.points)} points: {self.executed} executed, "
                f"{self.cached} cached, {len(self.failures)} failed")


def run_sweep(sweep: SweepSpec, params: SimParams,
              shard: tuple[int, int] = (0, 1), jobs: int = 0,
              out_dir: Path = Path("results/sweeps"),
              cache_dir: Optional[Path] = None, use_cache: bool = True,
              progress: bool = False,
              warm_cache: bool = False) -> SweepOutcome:
    """Execute (or resume) one shard of a sweep; returns the outcome.

    Interruptions are safe at point granularity: each completed point is
    already in the result cache.  Re-invoking with the same arguments
    resumes — previously finished points are served from the cache, only
    the remainder executes.  Individual point crashes do not abort the
    shard (``run_grid`` failure isolation); they surface in
    ``outcome.failures`` with the rest completed and cached.

    ``warm_cache`` shares the functional warm-up across points with the
    same (workload, substrate) prefix — e.g. a design or scheduler axis
    forks every value from one warm state.  Results are bit-identical
    to cold execution (see repro/snapshot.py); each point's
    ``result.meta["warm"]`` records whether it was served from the warm
    state.  With ``jobs > 1`` checkpointing coarsens from per point
    to per warm group (a group is one pool task; see ``run_grid``).
    """
    t0 = time.time()
    points = sweep.shard_points(shard)
    store = _RecordingStore(cache_dir, enabled=use_cache)
    keys = [store.key(p.spec, params) for p in points]
    sweep_id = sweep.sweep_id(params)
    specs = [p.spec for p in points]
    failures: dict[RunSpec, str] = {}
    try:
        results = run_grid(specs, params, jobs=jobs, use_cache=use_cache,
                           progress=progress, store=store,
                           warm_cache=warm_cache)
    except GridExecutionError as exc:
        results = exc.results
        failures = exc.failures

    executed = set(store.executed)
    outcomes = []
    for point, key in zip(points, keys):
        result = results.get(point.spec)
        tb = failures.get(point.spec)
        outcomes.append(PointOutcome(
            point=point, key=key, result=result,
            executed=key in executed,
            error=(tb.strip().splitlines()[-1] if tb else None)))

    i, n = shard
    results_name = "results.json" if n == 1 else f"results_{i + 1}of{n}.json"
    results_path = atomic_write_json(
        Path(out_dir) / sweep.name / results_name,
        {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "result_schema_version": RESULT_SCHEMA_VERSION,
            "kind": "sweep",
            "sweep_id": sweep_id,
            "name": sweep.name,
            "spec": sweep.to_dict(),
            "shard": list(shard),
            "params": {k: getattr(params, k)
                       for k in params.__dataclass_fields__},
            "complete": all(p.result is not None for p in outcomes),
            "points": [p.to_dict() for p in outcomes],
        })

    return SweepOutcome(
        name=sweep.name, sweep_id=sweep_id, shard=shard, points=outcomes,
        results_path=results_path, elapsed_s=round(time.time() - t0, 3))
