"""``dca-repro sweep`` — run an arbitrary scenario grid from the shell.

Examples::

    # scheduler x queue-depth sweep over mix 1 (the default workload)
    dca-repro sweep --quick --axis scheduler=bliss,frfcfs \\
                    --axis queues.read_entries=16,64

    # design x organization over three mixes, shard 1 of 4 machines
    dca-repro sweep --axis design=CD,ROD,DCA --axis organization=sa,dm \\
                    --mixes 3 --shard 1/4

    # adversarial workloads as a first-class axis
    dca-repro sweep --axis workload=adversarial_conflict,adversarial_writeback \\
                    --axis design=CD,DCA

    # the same grid from a JSON spec file
    dca-repro sweep --spec mysweep.json

Interrupted sweeps resume: re-run the identical command and completed
points are served from the result cache; only the remainder executes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.common import SimParams, format_table, validated_mix_ids
from repro.scenarios.executor import run_sweep
from repro.scenarios.spec import (
    RUNSPEC_AXES,
    TARGET_AXES,
    SweepSpec,
    parse_axis_value,
)
from repro.workloads.scenarios import workload_names


def parse_shard(text: str) -> tuple[int, int]:
    """``i/n`` with 1-based i (CLI convention) -> 0-based (i-1, n)."""
    try:
        i_s, n_s = text.split("/", 1)
        i, n = int(i_s), int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/n' (e.g. 1/4), got {text!r}") from None
    if n < 1 or not 1 <= i <= n:
        raise argparse.ArgumentTypeError(
            f"shard {text!r} out of range: need 1 <= i <= n")
    return i - 1, n


def parse_axis(text: str) -> tuple[str, list]:
    """``name=v1,v2,...`` -> (name, coerced values)."""
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"axis must look like 'name=v1,v2,...', got {text!r}")
    return name.strip(), [parse_axis_value(v.strip())
                          for v in values.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dca-repro sweep",
        description="Execute a declarative scenario sweep: any cross-product "
                    "of RunSpec knobs and SystemConfig paths x workloads.",
        epilog=f"RunSpec axes: {', '.join(RUNSPEC_AXES)}.  Config axes: any "
               f"dotted SystemConfig path (queues.read_entries, org.channels, "
               f"substrate.fidelity, timings.tREFI (0 = refresh off), "
               f"timings.tRRD/timings.tFAW (0 = ACT limits off), "
               f"queues.write_high_watermark, ...).  Named workloads: "
               f"{', '.join(workload_names())}, or trace:<path>.  Without a "
               f"workload axis the sweep runs Table I mix 1; without a design "
               f"axis it runs DCA.")
    p.add_argument("--axis", action="append", default=[], type=parse_axis,
                   metavar="NAME=V1,V2,...",
                   help="add one sweep axis (repeatable)")
    p.add_argument("--spec", metavar="FILE",
                   help="JSON sweep spec {name, axes, base}; --axis adds to it")
    p.add_argument("--name", default=None,
                   help="sweep name (output directory; default 'sweep' or "
                        "the spec file's name)")
    p.add_argument("--mixes", type=int, default=None, metavar="N",
                   help="shorthand: add a mix_id axis over Table I mixes 1..N")
    p.add_argument("--shard", type=parse_shard, default=(0, 1), metavar="I/N",
                   help="run shard I of N (1-based; points split round-robin)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = auto)")
    p.add_argument("--quick", action="store_true",
                   help="reduced instruction budgets (smoke-test scale)")
    p.add_argument("--measure", type=int, default=None,
                   help="measured instructions per core")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the results cache "
                        "(disables resume)")
    p.add_argument("--warm-cache", action="store_true",
                   help="share functional warm-up state across points with "
                        "the same (workload, substrate) prefix "
                        "(bit-identical results; parallelism then spans "
                        "warm groups, so single-mix sweeps run "
                        "sequentially)")
    p.add_argument("--out", default="results/sweeps",
                   help="output directory (default ./results/sweeps)")
    p.add_argument("--dry-run", action="store_true",
                   help="list the compiled grid points and exit")
    return p


def _load_spec_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read sweep spec {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"sweep spec {path} must be a JSON object")
    return data


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    spec_data: dict = {"axes": {}, "base": {}}
    if args.spec:
        loaded = _load_spec_file(args.spec)
        spec_data["name"] = loaded.get("name", Path(args.spec).stem)
        spec_data["axes"].update(loaded.get("axes", {}))
        spec_data["base"].update(loaded.get("base", {}))
    cli_axes: set[str] = set()
    for name, values in args.axis:
        # A repeated flag would silently drop the earlier values
        # (overriding a *spec-file* axis from the CLI is intentional).
        if name in cli_axes:
            parser.error(f"duplicate --axis {name!r}: give each axis once, "
                         f"with all its values comma-separated")
        cli_axes.add(name)
        spec_data["axes"][name] = values
    if args.mixes is not None:
        if "mix_id" in spec_data["axes"]:
            parser.error("--mixes conflicts with an explicit mix_id axis")
        spec_data["axes"]["mix_id"] = validated_mix_ids(
            args.mixes, error=parser.error)
    if args.name:
        spec_data["name"] = args.name
    spec_data.setdefault("name", "sweep")
    targets = set(TARGET_AXES) & (set(spec_data["axes"])
                                  | set(spec_data["base"]))
    if not targets:
        spec_data["base"]["mix_id"] = 1   # documented default workload

    try:
        sweep = SweepSpec.from_dict(spec_data)
        grid = sweep.compile()
    except ValueError as exc:
        parser.error(str(exc))
    i, n = args.shard
    points = grid[i::n]

    params = SimParams.from_cli(quick=args.quick, measure=args.measure,
                                error=parser.error)

    print(f"=== sweep {sweep.name}: {len(grid)} points, "
          f"{len(points)} in shard {i + 1}/{n}")
    if args.dry_run:
        rows = [[j + 1, p.label()] for j, p in enumerate(points)]
        print(format_table(["#", "point"], rows))
        return 0

    outcome = run_sweep(
        sweep, params, shard=args.shard, jobs=args.jobs,
        out_dir=Path(args.out), use_cache=not args.no_cache, progress=True,
        warm_cache=args.warm_cache)

    print(outcome.summary_table())
    print(f"  {outcome.counts_line()}  ({outcome.elapsed_s:.1f}s)")
    print(f"  results: {outcome.results_path}")
    for p in outcome.failures:
        print(f"  FAILED {p.point.label()}: {p.error}", file=sys.stderr)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
