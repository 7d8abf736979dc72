"""Command-line entry point: regenerate any paper table/figure, or sweep.

Usage::

    python -m repro.experiments <id> [...ids|all] [options]
    dca-repro fig08 --mixes 30 --jobs 8
    dca-repro sweep --axis scheduler=bliss,frfcfs --axis queues.read_entries=16,64

Each experiment ``plan``s the points it reads.  The runner runs the
union of the requested experiments' plans once through ``run_grid``,
prints one summary line for that grid, then hands each ``report``
exactly its own points.  Reports are printed and written to
``results/<id>.txt`` (+ ``.json``) with PASS/FAIL per shape check (the
qualitative claims the paper makes about that figure).  A crashed point
fails only the experiments that planned it: they list it on stderr and
write nothing, and the exit code is 1.

The ``sweep`` subcommand (``dca-repro sweep --help``) executes arbitrary
scenario grids with sharding and resumable checkpoints; it is implemented
in :mod:`repro.scenarios.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.experiments import common
from repro.experiments import (
    fig08_speedup, fig09_remap, fig18_tagcache, fig19_lee, misslat,
    perworkload, rowhit, table1_workloads, table2_params, turnaround,
)
from repro.experiments.common import RunSpec, SimParams

#: id -> experiment (anything with ID, TITLE, plan and report), in the
#: order ``all`` runs them
EXPERIMENTS = {e.ID: e for e in (
    table1_workloads, table2_params, fig08_speedup, fig09_remap,
    *perworkload.FIGURES, *misslat.FIGURES, *turnaround.FIGURES,
    *rowhit.FIGURES, fig18_tagcache, fig19_lee,
)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dca-repro",
        description="Regenerate tables/figures of the DCA paper (SC'16).",
        epilog="For arbitrary scenario grids (sharded, resumable), see the "
               "'sweep' subcommand: dca-repro sweep --help")
    p.add_argument("ids", nargs="+",
                   help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'")
    p.add_argument("--mixes", type=int, default=30,
                   help="number of Table I mixes to simulate (default 30)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = auto)")
    p.add_argument("--quick", action="store_true",
                   help="reduced instruction budgets (smoke-test scale)")
    p.add_argument("--measure", type=int, default=None,
                   help="measured instructions per core")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the results cache")
    p.add_argument("--out", default="results",
                   help="output directory (default ./results)")
    p.add_argument("--profile", metavar="OUT.prof", default=None,
                   help="run the experiments under cProfile and write "
                        "pstats data to OUT.prof (forces --jobs 1 so the "
                        "simulation work is traced in-process; walls "
                        "inflate under tracing)")
    return p


def run_union(plans: dict[str, list[RunSpec]], params: SimParams,
              jobs: int = 0, use_cache: bool = True, progress: bool = False
              ) -> tuple[common.Results, dict[RunSpec, str]]:
    """Run the union of ``plans`` once; return its results and failures.

    Prints the grid's summary line: points requested by all plans, unique
    points, points simulated, points served from the result store, and
    the grid's wall time.
    """
    unique = list(dict.fromkeys(s for specs in plans.values() for s in specs))
    store = common.ResultStore(enabled=use_cache)
    failures: dict[RunSpec, str] = {}
    t0 = time.time()
    try:
        results = common.run_grid(unique, params, jobs=jobs,
                                  progress=progress, store=store)
    except common.GridExecutionError as exc:
        results, failures = exc.results, exc.failures
    print(f"grid: {sum(map(len, plans.values()))} points requested, "
          f"{len(unique)} unique, {len(unique) - store.hits} executed, "
          f"{store.hits} served from store, {len(failures)} failed "
          f"({time.time() - t0:.1f}s)\n")
    return results, failures


def report_experiment(exp_id: str, specs: list[RunSpec],
                      results: common.Results, failures: dict[RunSpec, str],
                      params: SimParams, mixes: Sequence[int],
                      out_dir: Path) -> bool:
    """Report one experiment from its planned points; False if it failed."""
    exp = EXPERIMENTS[exp_id]
    print(f"=== {exp_id}: {exp.TITLE}")
    failed = {s: failures[s] for s in specs if s in failures}
    if failed:
        done = {s: results[s] for s in specs if s in results}
        print(f"  ERROR: {exp_id}: {common.GridExecutionError(failed, done)}",
              file=sys.stderr)
        return False
    t0 = time.time()
    report, data, checks = exp.report({s: results[s] for s in specs},
                                      params, mixes)
    elapsed = time.time() - t0
    print(report)
    ok = True
    for desc, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {desc}")
        ok = ok and passed
    print(f"  ({elapsed:.1f}s)\n")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{exp_id}.txt").write_text(
        report + "\n" + "\n".join(
            f"[{'PASS' if p else 'FAIL'}] {d}" for d, p in checks) + "\n")
    (out_dir / f"{exp_id}.json").write_text(json.dumps(
        {"id": exp_id, "title": exp.TITLE, "data": data,
         "checks": {d: p for d, p in checks}, "elapsed_s": elapsed},
        indent=2, default=str))
    return ok


def run_experiments(ids: Sequence[str], params: SimParams,
                    mixes: Sequence[int], jobs: int, out_dir: Path,
                    use_cache: bool = True) -> bool:
    """Plan, run one grid, and report every id; False if any failed."""
    plans = {i: EXPERIMENTS[i].plan(mixes) for i in ids}
    results, failures = run_union(plans, params, jobs=jobs,
                                  use_cache=use_cache, progress=True)
    ok_all = True
    for exp_id, specs in plans.items():
        ok = report_experiment(exp_id, specs, results, failures, params,
                               mixes, out_dir)
        ok_all = ok_all and ok
    return ok_all


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from repro.scenarios.cli import main as sweep_main
        return sweep_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        if "sweep" in unknown:
            print("'sweep' is a subcommand and must come first: "
                  "dca-repro sweep [options]", file=sys.stderr)
        print(f"unknown experiment ids: {unknown}; known: {list(EXPERIMENTS)}",
              file=sys.stderr)
        return 2

    params = common.SimParams.from_cli(quick=args.quick, measure=args.measure,
                                       error=parser.error)
    mixes = common.validated_mix_ids(args.mixes, error=parser.error)
    out_dir = Path(args.out)

    jobs = args.jobs
    if args.profile:
        # Worker processes would escape the profiler; trace in-process.
        jobs = 1

    def run_all() -> bool:
        return run_experiments(ids, params, mixes, jobs, out_dir,
                               use_cache=not args.no_cache)

    if args.profile:
        all_ok = common.write_profiled(run_all, Path(args.profile))
        print(f"profile written to {args.profile}")
    else:
        all_ok = run_all()
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
