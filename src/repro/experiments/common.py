"""Shared experiment machinery: run specs, result store, parallel execution.

The evaluation figures 8-17 all read off the same **grid** of simulations
(design x organization x remapping x mix), plus single-core *alone* runs
for weighted-speedup denominators.  The runner runs the union of the
requested experiments' plans once through ``run_grid``, which executes
them with a process pool and a :class:`ResultStore` — a JSON disk cache
keyed by the spec+parameter hash **and the result schema version** (see
DESIGN.md), so a later invocation reuses earlier simulations and entries
written by older code are invalidated instead of silently reused.

Execution uses ``as_completed`` futures: one crashed worker no longer
kills the whole grid (completed points are still stored and reported, and
the failures surface together in a :class:`GridExecutionError`), and the
returned mapping is always in input-spec order regardless of completion
order, so downstream iteration is deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import os
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from repro.config import scaled_config
from repro.metrics.speedup import geomean, weighted_speedup
from repro.sim.system import (
    RESULT_SCHEMA_VERSION,
    ResultSchemaError,
    System,
    SystemResult,
)
from repro.snapshot import (
    WARM_STATE_VERSION, WarmCache, WarmStateError, warm_identity)
from repro.workloads.profiles import PROFILES, profile
from repro.workloads.scenarios import workload_profiles
from repro.workloads.table1 import mix_profiles

#: designs in the paper's presentation order
DESIGNS = ("CD", "ROD", "DCA")


@dataclass(frozen=True)
class SimParams:
    """Knobs shared by every run of one experiment invocation."""

    capacity_scale: int = 8          # divide L2 + DRAM-cache capacity by this
    footprint_scale: float = 1 / 20  # multiply workload footprints by this
    warmup_insts: int = 20_000       # timed warm-up per core
    measure_insts: int = 60_000      # measured instructions per core
    replay_accesses: int = 12_000    # functional L2 warm-up per core

    @classmethod
    def quick(cls) -> "SimParams":
        """Reduced sizes for benchmarks / smoke tests."""
        return cls(warmup_insts=10_000, measure_insts=25_000,
                   replay_accesses=6_000)

    @classmethod
    def from_cli(cls, quick: bool = False,
                 measure: Optional[int] = None,
                 error=None) -> "SimParams":
        """Build params from the shared CLI flags, validating ``--measure``.

        ``error`` is the argparse ``parser.error`` callable; without one a
        ``ValueError`` is raised.  Shared by the figure runner and the
        sweep CLI so the budget rules cannot drift apart.
        """
        params = cls.quick() if quick else cls()
        if measure is not None:
            # `if args.measure:` used to silently ignore --measure 0.
            if measure <= 0:
                msg = (f"--measure must be a positive instruction count, "
                       f"got {measure}")
                if error is not None:
                    error(msg)
                raise ValueError(msg)
            params = dataclasses.replace(params, measure_insts=measure)
        return params


def validated_mix_ids(n: int, error=None) -> list[int]:
    """Mixes ``1..n``, rejecting out-of-range counts.

    The old behaviour silently clamped to 30 and let ``--mixes 0``
    produce an empty grid that "passed"; both are errors now.  ``error``
    is the argparse ``parser.error`` callable; without one a
    ``ValueError`` is raised.
    """
    if not 1 <= n <= 30:
        msg = f"--mixes must be 1..30 (Table I has 30 mixes), got {n}"
        if error is not None:
            error(msg)
        raise ValueError(msg)
    return list(range(1, n + 1))


@dataclass(frozen=True)
class RunSpec:
    """One simulation point."""

    design: str
    organization: str = "sa"
    xor_remap: bool = False
    mix_id: Optional[int] = None          # Table I mix; None -> alone run
    alone_benchmark: Optional[str] = None  # set for alone runs
    lee_writeback: bool = False
    scheduler: str = "bliss"
    use_mapi: bool = True
    seed: int = 0
    #: named workload scenario (repro.workloads.scenarios) or trace:<path>
    workload: Optional[str] = None
    #: config overrides as ``(dotted_path, value)`` pairs — hashable, so
    #: sweep points over e.g. queue depth stay valid cache keys
    config: tuple = ()

    def benchmarks(self):
        if self.alone_benchmark is not None:
            return [profile(self.alone_benchmark)]
        if self.workload is not None:
            return workload_profiles(self.workload)
        if self.mix_id is None:
            raise ValueError("spec needs mix_id, workload or alone_benchmark")
        return mix_profiles(self.mix_id)

    def label(self) -> str:
        name = ("XOR+" if self.xor_remap else "") + self.design
        if self.lee_writeback:
            name = "LEE+" + name
        if self.workload is not None:
            name += f":{self.workload}"
        if self.config:
            # points differing only in overrides must stay tellable apart
            # in progress lines and GridExecutionError reports
            name += "[" + ",".join(f"{k}={v}" for k, v in self.config) + "]"
        return name


def default_seed(spec: RunSpec) -> int:
    """Trace seed of a spec that doesn't pin one explicitly.

    Distinct per benchmark/workload: alone runs used to all collapse to
    seed 1, sharing one RNG stream across every benchmark.  CRC32 of the
    target name is stable across processes and Python versions (unlike
    ``hash``), so cache keys and results stay reproducible.
    """
    if spec.seed:
        return spec.seed
    # Mirror RunSpec.benchmarks() precedence exactly: the seed derives
    # from whichever field actually supplies the benchmarks, so a spec
    # combining targets can't seed from an ignored one.
    basis = spec.alone_benchmark or spec.workload
    if basis is not None:
        return 1 + zlib.crc32(basis.encode()) % 1_000_003
    if spec.mix_id is not None:
        return spec.mix_id
    return 1 + zlib.crc32(spec.design.encode()) % 1_000_003


def resolved_config(spec: RunSpec, params: SimParams):
    """The :class:`SystemConfig` a spec actually simulates with."""
    return scaled_config(params.capacity_scale).with_overrides(spec.config)


def build_system(spec: RunSpec, params: SimParams) -> System:
    """Construct (but do not run) the system a spec describes."""
    return System(
        resolved_config(spec, params), spec.design, spec.benchmarks(),
        organization=spec.organization, xor_remap=spec.xor_remap,
        use_mapi=spec.use_mapi, scheduler=spec.scheduler,
        lee_writeback=spec.lee_writeback, seed=default_seed(spec),
        footprint_scale=params.footprint_scale)


def warm_group_key(spec: RunSpec, params: SimParams) -> str:
    """Warm-state cache key: the run prefix that shapes the warm-up.

    Hashes :func:`repro.snapshot.warm_identity` of the spec's system (the
    fields a captured :class:`~repro.snapshot.WarmState` records and a
    restore checks) plus what names the workload beyond its benchmark
    names (mix/scenario/alone target and the trace-file content token)
    and the replay budget, while **masking every controller-relevant
    field** (design, scheduler, MAP-I, XOR remap, queue/timing/main-memory
    configuration): specs that differ only in those share one warm state,
    which is what lets a multi-design sweep warm up once per (mix,
    substrate) group.
    """
    identity = warm_identity(
        resolved_config(spec, params), spec.organization, default_seed(spec),
        [b.name for b in spec.benchmarks()], params.footprint_scale,
        bool(spec.lee_writeback))
    payload = json.dumps(
        [WARM_STATE_VERSION, identity,
         spec.mix_id, spec.workload, spec.alone_benchmark,
         _workload_content_token(spec.workload),
         params.replay_accesses],
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def run_one(spec: RunSpec, params: SimParams,
            warm_cache: Optional[WarmCache] = None) -> SystemResult:
    """Execute one simulation point (safe to call in a worker process).

    Build the system, warm its caches, start the cores, run to the end.
    With a ``warm_cache``, the functional warm-up is served from (or
    captured into) the cache under :func:`warm_group_key` — results are
    bit-identical to a cold run either way (the warm-state invariant;
    see repro/snapshot.py), only ``result.meta["warm"]`` records which
    path ran.
    """
    system = build_system(spec, params)
    key = warm = None
    if warm_cache is not None:
        key = warm_group_key(spec, params)
        warm = warm_cache.get(key)
    if warm is None:
        system.functional_warmup(params.replay_accesses)
        if warm_cache is not None:
            warm_cache.put(key, system.capture_warm_state())
    else:
        # The key already covers the replay budget; the recorded trace
        # counts must agree with it too, or the run would silently
        # differ from this params' cold result.
        if any(c != params.replay_accesses for c in warm.trace_counts):
            raise WarmStateError(
                f"warm state was captured with per-core trace counts "
                f"{warm.trace_counts}, not the replay budget "
                f"{params.replay_accesses}")
        system.restore_warm_state(warm)
    system.begin(params.warmup_insts, params.measure_insts)
    result = system.finish()
    spec_dict = dataclasses.asdict(spec)
    # JSON-canonical form: the config override pairs are tuples on the
    # spec (hashability) but lists on disk, so cache round-trips are
    # lossless (SystemResult equality included).
    spec_dict["config"] = [list(kv) for kv in spec.config]
    result.meta["spec"] = spec_dict
    if warm_cache is not None:
        result.meta["warm"] = {"key": key, "restored": warm is not None}
    return result


def _run_batch(specs: Sequence[RunSpec], params: SimParams,
               warm_cache: Optional[WarmCache]) -> list:
    """Run specs one after another in this process, sharing ``warm_cache``.

    The one worker of :func:`run_grid`, serial and pooled.  Returns
    ``[(spec, result_or_None, traceback_or_None), ...]`` — failure
    isolation is per *point*: a crashed point neither kills its batch
    nor poisons the warm state the rest fork from.
    """
    out = []
    for spec in specs:
        try:
            # Looked up at call time: run_one is a documented patch point
            # for execution-flow tests and the benchmark's per-point timer.
            result = run_one(spec, params, warm_cache)
        except Exception:
            out.append((spec, None, traceback.format_exc()))
        else:
            out.append((spec, result, None))
        # A finished System is cyclic garbage (its components hold bound
        # methods of one another).  Few container allocations follow a
        # point, so the allocation-driven collector would let several dead
        # Systems pile up; reclaim each one now.
        gc.collect()
    return out


# ---------------------------------------------------------------- result store

def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", "results/cache"))


@functools.lru_cache(maxsize=256)
def _file_digest(path: str, mtime_ns: int, size: int) -> str:
    # mtime/size participate in the lru key, so an edited file re-hashes.
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _workload_content_token(workload: Optional[str]) -> Optional[str]:
    """Content fingerprint of a ``trace:<path>`` workload, else None.

    A trace-file spec names the file, not its contents — without this
    token, editing the trace would silently serve stale cached results
    for the same path.  A missing file gets a sentinel (the run will
    fail with its own clear error).
    """
    if not workload or not workload.startswith("trace:"):
        return None
    path = workload[len("trace:"):]
    try:
        st = os.stat(path)
    except OSError:
        return "missing"
    return _file_digest(path, st.st_mtime_ns, st.st_size)


def atomic_write_json(path: Path, payload) -> Path:
    """Serialise ``payload`` to ``path`` via tmp-file + rename.

    The write is atomic at the filesystem level, so a crashed process
    can't leave a torn entry.  Shared by :class:`ResultStore` and the
    sweep engine's results file, so every on-disk JSON artefact goes
    through the same path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=False))
    tmp.replace(path)
    return path


def write_profiled(fn, path: Path):
    """Run ``fn()`` under cProfile and write pstats data to ``path``.

    The dump goes through tmp-file + rename like every other artefact,
    so an interrupted run never leaves a torn .prof behind.  Only the
    call itself is traced — argument setup and the write are outside the
    profile.  Returns ``fn``'s result.  Used by the ``--profile`` flag
    of ``dca-repro``.
    """
    import cProfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    tmp = path.with_suffix(path.suffix + ".tmp")
    prof.dump_stats(tmp)
    tmp.replace(path)
    return result


class ResultStore:
    """Versioned on-disk store of :class:`SystemResult` JSON entries.

    The cache key hashes ``(schema_version, spec, params)``, so a schema
    bump changes every key and pre-refactor entries simply stop matching;
    as defence in depth, :meth:`load` also validates the entry's recorded
    ``schema_version`` and exact field set and treats any mismatch (or
    corruption) as a miss.  ``enabled=False`` turns both lookup and
    storage off — the ``--no-cache`` CLI path.
    """

    def __init__(self, cache_dir: Optional[Path] = None,
                 enabled: bool = True):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = enabled
        #: entries :meth:`load` served (the points a grid did not re-run)
        self.hits = 0

    def key(self, spec: RunSpec, params: SimParams) -> str:
        payload = json.dumps(
            [RESULT_SCHEMA_VERSION, dataclasses.asdict(spec),
             dataclasses.asdict(params),
             _workload_content_token(spec.workload)],
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def path(self, spec: RunSpec, params: SimParams) -> Path:
        return self.cache_dir / f"{self.key(spec, params)}.json"

    def load(self, spec: RunSpec, params: SimParams) -> Optional[SystemResult]:
        if not self.enabled:
            return None
        path = self.path(spec, params)
        if not path.exists():
            return None
        try:
            result = SystemResult.from_cache_dict(json.loads(path.read_text()))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError,
                ResultSchemaError, TypeError):
            # Unreadable, truncated, corrupt or stale-schema entry:
            # a miss, never an abort.
            return None
        self.hits += 1
        return result

    def store(self, spec: RunSpec, params: SimParams,
              result: SystemResult) -> None:
        if not self.enabled:
            return
        atomic_write_json(self.path(spec, params), result.to_cache_dict())


# ---------------------------------------------------------------- execution

class GridExecutionError(RuntimeError):
    """One or more grid points crashed; the rest completed (and cached).

    Attributes
    ----------
    failures:
        ``{spec: formatted traceback string}`` of every crashed point.
    results:
        The results of the points that did complete, in input order.
    """

    def __init__(self, failures: dict, results: dict):
        self.failures = failures
        self.results = results
        lines = [f"{len(failures)} of {len(failures) + len(results)} grid "
                 f"points failed:"]
        for spec, tb in failures.items():
            last = tb.strip().splitlines()[-1] if tb else "?"
            lines.append(f"  {spec.label()} (mix={spec.mix_id}, "
                         f"alone={spec.alone_benchmark}): {last}")
        super().__init__("\n".join(lines))


def run_grid(specs: Sequence[RunSpec], params: SimParams,
             jobs: int = 0, use_cache: bool = True,
             progress: bool = False,
             cache_dir: Optional[Path] = None,
             store: Optional[ResultStore] = None,
             warm_cache: bool = False) -> dict[RunSpec, SystemResult]:
    """Run many simulation points, with caching and multiprocessing.

    Results come back keyed in **input-spec order** whatever order the
    workers finish in.  A crashed point does not abort the rest: every
    other point still runs (and is stored), then a
    :class:`GridExecutionError` carrying all failures is raised.

    Every point runs through one worker, :func:`_run_batch` (which calls
    :func:`run_one`): serially, once per point, storing each point as
    it finishes; pooled, once per batch.  With ``warm_cache``, points
    sharing a warm-up prefix — same workload, seed and substrate, any
    controller design — are grouped under :func:`warm_group_key` into
    one batch each: the first point captures the functional warm state,
    the rest fork from it.  Results are bit-identical to cold runs; only
    wall-clock changes (see tests/test_warm_cache.py).  Note that with
    ``jobs > 1`` a warm group is one pool task, so store/checkpoint
    granularity coarsens from per point to per group and parallelism is
    bounded by the number of *groups* — a single-mix multi-design sweep
    is one group and runs sequentially (the warm win must beat the lost
    parallelism; grids spanning several mixes keep both).  ``jobs=1``
    keeps per-point streaming.
    """
    if store is None:
        store = ResultStore(cache_dir, enabled=use_cache)
    done: dict[RunSpec, SystemResult] = {}
    failures: dict[RunSpec, str] = {}
    todo: list[RunSpec] = []
    seen: set[RunSpec] = set()
    for spec in specs:
        if spec in seen:
            continue
        seen.add(spec)
        cached = store.load(spec, params)
        if cached is not None:
            done[spec] = cached
        else:
            todo.append(spec)

    completed = 0

    def record(spec: RunSpec, result: SystemResult) -> None:
        nonlocal completed
        completed += 1
        done[spec] = result
        # Warm/cold runs share cache entries (results are bit-identical),
        # so the *stored* form must not carry this run's warm provenance:
        # a later cache hit would replay stale restored/cold flags.  The
        # in-memory result keeps them for this run's reporting.
        if "warm" in result.meta:
            stored = dataclasses.replace(
                result, meta={k: v for k, v in result.meta.items()
                              if k != "warm"})
        else:
            stored = result
        store.store(spec, params, stored)
        if progress:
            print(f"  [{completed}/{len(todo)}] {spec.label()} done",
                  flush=True)

    # The unit of work: single specs normally, whole warm groups (in
    # warm-key order of first appearance) under warm_cache.
    if warm_cache:
        groups: dict[str, list[RunSpec]] = {}
        for i, spec in enumerate(todo):
            try:
                key = warm_group_key(spec, params)
            except Exception:
                # Malformed spec (e.g. an unknown config field):
                # keep the failure-isolation promise — give it its own
                # group so the error surfaces as that point's failure in
                # the worker, not as a grid-wide crash here.
                key = f"_unkeyable_{i}"
            groups.setdefault(key, []).append(spec)
        batches = list(groups.values())
    else:
        batches = [[spec] for spec in todo]

    def absorb(batch_results: list) -> None:
        # Only the simulation itself is failure-isolated; a store/report
        # error is an infrastructure problem and propagates as itself
        # (guarding record() too would book one spec as both a success
        # and a failure).
        for spec, result, tb in batch_results:
            if tb is not None:
                failures[spec] = tb
            else:
                record(spec, result)

    if todo:
        if jobs <= 0:
            jobs = min(8, os.cpu_count() or 1)
        if jobs == 1 or len(batches) == 1:
            # Sequential: stream point by point, so every point is stored
            # as it finishes (the batches only order capture before
            # forks).  The warm cache is call-scoped, so captured states
            # are released with the grid instead of pinned in the
            # calling process.
            grid_warm = WarmCache() if warm_cache else None
            for batch in batches:
                for spec in batch:
                    absorb(_run_batch([spec], params, grid_warm))
        else:
            # Pooled: one task per batch, each with its own warm cache.
            # Under warm grouping a batch is a whole warm group, so a
            # longer-lived cache could never see a hit from another task,
            # and checkpoint granularity is per group here (a killed run
            # re-simulates at most one group's tail).
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_run_batch, batch, params,
                                WarmCache() if warm_cache else None): batch
                    for batch in batches}
                for fut in as_completed(futures):
                    batch = futures[fut]
                    try:
                        batch_results = fut.result()
                    except Exception:
                        # Worker-level death (broken pool, unpicklable
                        # result): book every spec of the batch as a
                        # point failure so the rest of the grid still
                        # completes and reports.
                        tb = traceback.format_exc()
                        batch_results = [(spec, None, tb) for spec in batch]
                    absorb(batch_results)

    # Deterministic ordering: follow the input sequence, not completion.
    out = {spec: done[spec] for spec in specs if spec in done}
    if failures:
        raise GridExecutionError(failures, out)
    return out


# ---------------------------------------------------------------- speedups

def alone_specs(organization: str, xor_remap: bool = False,
                lee_writeback: bool = False) -> list[RunSpec]:
    """Single-core runs for WS denominators (CD baseline, see DESIGN.md)."""
    return [RunSpec("CD", organization, xor_remap,
                    alone_benchmark=name, lee_writeback=lee_writeback,
                    seed=97 + i)
            for i, name in enumerate(sorted(PROFILES))]


def alone_ipc_table(results: dict[RunSpec, SystemResult]) -> dict[str, float]:
    """benchmark name -> alone IPC, from alone-run results."""
    table = {}
    for spec, res in results.items():
        if spec.alone_benchmark is not None:
            table[spec.alone_benchmark] = res.ipcs[0]
    return table


def mix_weighted_speedup(result: SystemResult,
                         alone: dict[str, float]) -> float:
    """WS of one mix result against the alone-IPC table."""
    alone_ipcs = [alone[name] for name in result.benchmarks]
    return weighted_speedup(result.ipcs, alone_ipcs)


def grid_specs(mixes: Sequence[int], organizations: Sequence[str],
               remaps: Sequence[bool] = (False,),
               designs: Sequence[str] = DESIGNS,
               lee_writeback: bool = False) -> list[RunSpec]:
    """The cross product driving Figs. 8-17 (and 19 with lee_writeback)."""
    return [RunSpec(d, org, rm, mix_id=m, lee_writeback=lee_writeback)
            for org in organizations
            for rm in remaps
            for d in designs
            for m in mixes]


def normalized_speedup_table(
        results: dict[RunSpec, SystemResult],
        mixes: Sequence[int], organization: str,
        variants: Sequence[tuple[str, bool]],
        baseline: tuple[str, bool] = ("CD", False),
        lee_writeback: bool = False,
) -> dict[tuple[str, bool], float]:
    """Geomean normalized WS per (design, remap) variant (Figs. 8/9/19),
    against the alone runs of ``organization`` among ``results``."""
    alone = alone_ipc_table({s: r for s, r in results.items()
                             if s.organization == organization})

    def ws_list(design: str, remap: bool) -> list[float]:
        out = []
        for m in mixes:
            spec = RunSpec(design, organization, remap, mix_id=m,
                           lee_writeback=lee_writeback)
            out.append(mix_weighted_speedup(results[spec], alone))
        return out

    base = ws_list(*baseline)
    table = {}
    for design, remap in variants:
        ws = ws_list(design, remap)
        table[(design, remap)] = geomean([a / b for a, b in zip(ws, base)])
    return table


# ---------------------------------------------------------------- experiments

#: an experiment's share of a grid: its planned points' results
Results = dict[RunSpec, SystemResult]

#: what an experiment's ``report`` returns: the text report, the JSON
#: data, and the shape checks as ``(description, passed)`` pairs
Report = tuple[str, dict, list[tuple[str, bool]]]


class OrgFigure(NamedTuple):
    """One figure of an SA/DM pair (Figs. 10-17): binds the pair's shared
    ``plan_org(organization, mixes)`` and ``report_org(organization,
    title, results, mixes)`` to one organization and title."""

    ID: str
    TITLE: str
    organization: str
    plan_org: Callable[[str, Sequence[int]], list[RunSpec]]
    report_org: Callable[..., Report]

    def plan(self, mixes: Sequence[int]) -> list[RunSpec]:
        return self.plan_org(self.organization, mixes)

    def report(self, results: Results, params: SimParams,
               mixes: Sequence[int]) -> Report:
        return self.report_org(self.organization, self.TITLE, results, mixes)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Minimal fixed-width ASCII table used by every experiment's report."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for c, cell in zip(cols, row):
            c.append(str(cell))
    widths = [max(len(v) for v in c) for c in cols]
    def fmt_row(vals):
        return "  ".join(str(v).ljust(w) for v, w in zip(vals, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)
