"""Command-line entry point: regenerate any paper table/figure, or sweep.

Usage::

    python -m repro.experiments <id> [...ids|all] [options]
    dca-repro fig08 --mixes 30 --jobs 8
    dca-repro sweep --axis scheduler=bliss,frfcfs --axis queues.read_entries=16,64

Reports are printed and written to ``results/<id>.txt`` (+ ``.json``).
Each experiment also evaluates its shape checks (the qualitative claims
the paper makes about that figure) and reports PASS/FAIL per claim.

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

from repro.experiments import common
from repro.experiments import (
    fig08_speedup, fig09_remap, fig10_sa_workloads, fig11_dm_workloads,
    fig12_misslat_sa, fig13_misslat_dm, fig14_turnaround_sa,
    fig15_turnaround_dm, fig16_rowhit_sa, fig17_rowhit_dm,
    fig18_tagcache, fig19_lee, table1_workloads, table2_params,
)

MODULES = {m.ID: m for m in (
    table1_workloads, table2_params,
    fig08_speedup, fig09_remap, fig10_sa_workloads, fig11_dm_workloads,
    fig12_misslat_sa, fig13_misslat_dm, fig14_turnaround_sa,
    fig15_turnaround_dm, fig16_rowhit_sa, fig17_rowhit_dm,
    fig18_tagcache, fig19_lee,
)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dca-repro",
        description="Regenerate tables/figures of the DCA paper (SC'16).",
        epilog="For arbitrary scenario grids (sharded, resumable), see the "
               "'sweep' subcommand: dca-repro sweep --help")
    p.add_argument("ids", nargs="+",
                   help=f"experiment ids ({', '.join(MODULES)}) or 'all'")
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


def run_experiment(exp_id: str, params: common.SimParams, mixes: list[int],
                   jobs: int, out_dir: Path, use_cache: bool = True) -> bool:
    mod = MODULES[exp_id]
    print(f"=== {exp_id}: {mod.TITLE}")
    t0 = time.time()
    try:
        report, data, checks = mod.run(params, mixes, jobs=jobs,
                                       progress=True, use_cache=use_cache)
    except common.GridExecutionError as exc:
        # Completed points were still stored; report the casualties and
        # fail this experiment without killing the remaining ids.
        print(f"  ERROR: {exc}", file=sys.stderr)
        return False
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
        {"id": exp_id, "title": mod.TITLE, "data": data,
         "checks": {d: p for d, p in checks}, "elapsed_s": elapsed},
        indent=2, default=str))
    return ok


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from repro.scenarios.cli import main as sweep_main
        return sweep_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)
    ids = list(MODULES) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in MODULES]
    if unknown:
        if "sweep" in unknown:
            print("'sweep' is a subcommand and must come first: "
                  "dca-repro sweep [options]", file=sys.stderr)
        print(f"unknown experiment ids: {unknown}; known: {list(MODULES)}",
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
        ok_all = True
        for exp_id in ids:
            ok = run_experiment(exp_id, params, mixes, jobs, out_dir,
                                use_cache=not args.no_cache)
            ok_all = ok_all and ok
        return ok_all

    if args.profile:
        all_ok = common.write_profiled(run_all, Path(args.profile))
        print(f"profile written to {args.profile}")
    else:
        all_ok = run_all()
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
