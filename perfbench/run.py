"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload quick_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` times repeated untraced passes for ``--seconds`` seconds
(finishing the pass in progress, starting none expected to end after
1.5 x ``--seconds``) and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass, one traced pass and a re-serve from
the filled store, and reports the per-layer metrics.  Every line but the
last is human-readable; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
provenance goes to ``.perfbench_out/records/``, traced spans to
``.perfbench_out/spans/``.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from instrument import Probe, Tracer, calibration_sample

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: imports a fresh interpreter needs to run any workload (setup_s)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments.common, repro.experiments.fig18_tagcache, "
    "repro.scenarios.executor, repro.scenarios.spec; "
    "print(time.perf_counter() - t)")

SETUP_REPEATS = 5

#: end-to-end metrics reported by ``--trace 0``: name -> unit
END_TO_END = {"wall_norm": "x", "setup_s": "s", "peak_rss_mb": "MB"}

#: reported beside them, not bounded (see README.md): name -> unit
ALSO_PRINTED = {"wall_s": "s", "kops_per_s": "kops/s", "sim_kips": "kinst/s",
                "tag_kacc_per_s": "kacc/s", "fail_frac": "ratio"}

#: per-layer metrics reported by ``--trace 1``: name -> (unit, better)
PER_LAYER = {
    "workloads.self_s": ("s", "lower"), "workloads.ops": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"), "sim.engine.events": ("count", "lower"),
    "sim.engine.ns_per_event": ("ns", "lower"),
    "sim.cpu.self_s": ("s", "lower"), "sim.cpu.ipc_mean": ("ipc", "higher"),
    "sim.system.self_s": ("s", "lower"),
    "sim.system.mem_access_calls": ("count", "lower"),
    "sim.warmup.self_s": ("s", "lower"), "sim.warmup.calls": ("count", "lower"),
    "snapshot.self_s": ("s", "lower"), "snapshot.captures": ("count", "lower"),
    "snapshot.restores": ("count", "higher"),
    "mem.self_s": ("s", "lower"), "mem.l2.accesses": ("count", "lower"),
    "mem.l2.hit_rate": ("ratio", "higher"),
    "mem.mshr.full_stalls": ("count", "lower"),
    "mem.mshr.mean_demand_latency_ps": ("ps", "lower"),
    "mem.mainmem.reads": ("count", "lower"),
    "mem.mainmem.writes": ("count", "lower"),
    "mem.mainmem.read_bus_wait_ps": ("ps", "lower"),
    "cache.self_s": ("s", "lower"), "cache.lookups": ("count", "lower"),
    "cache.fills": ("count", "lower"),
    "cache.dram_read_hit_rate": ("ratio", "higher"),
    "cache.mapi.accuracy": ("ratio", "higher"),
    "cache.tagcache.self_s": ("s", "lower"),
    "cache.tagcache.accesses": ("count", "lower"),
    "cache.tagcache.hit_rate": ("ratio", "higher"),
    "cache.tagcache.dram_tag_accesses": ("count", "lower"),
    "core.self_s": ("s", "lower"), "core.submits": ("count", "lower"),
    "core.reads_done": ("count", "higher"),
    "core.writebacks": ("count", "lower"),
    "core.forced_flushes": ("count", "lower"),
    "core.read_priority_inversions": ("count", "lower"),
    "core.mean_read_latency_ps": ("ps", "lower"),
    "dram.self_s": ("s", "lower"), "dram.issues": ("count", "lower"),
    "dram.estimates": ("count", "lower"), "dram.accesses": ("count", "lower"),
    "dram.turnarounds": ("count", "lower"),
    "dram.read_row_hit_rate": ("ratio", "higher"),
    "dram.faw_stalls": ("count", "lower"), "dram.rrd_stalls": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.store_writes": ("count", "lower"),
    "experiments.rerun_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
}


# ------------------------------------------------------------- measurement

def import_seconds() -> float:
    """Program import time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: Any) -> list[float]:
    """Import the program and build the workload's inputs, repeatedly."""
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        samples.append(imported + time.perf_counter() - t0)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "git_commit": git_commit()}


# ---------------------------------------------------------------- the runs

class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: Any, seconds: float):
        self.w = workload
        self.seconds = seconds
        self.passes: list[dict] = []
        self.failed_ops: list[str] = []
        self.attempted = 0
        self._digests: Optional[list[str]] = None

    def judge(self, result: Any, label: str) -> None:
        """Count the pass's operations and fail any that changed digest."""
        digests = [op.digest for op in result.ops]
        if self._digests is None:
            self._digests = digests
        for op, first in zip(result.ops, self._digests):
            if op.digest != first:
                op.errors.append(f"digest {op.digest} != first pass {first}")
        self.attempted += len(result.ops)
        for op in result.ops:
            if not op.ok:
                self.failed_ops.append(f"{label}:{op.name}: "
                                       + "; ".join(op.errors))

    def untraced_pass(self, workdir: Path, label: str) -> Any:
        """One pass with tracing off; its wall excludes calibration."""
        gc.collect()
        probe = Probe()
        probe.calibration_s.append(calibration_sample())
        with probe.installed():
            result = self.w.run_pass(workdir)
        trace_ops = self.w.trace_ops()
        self.passes.append({
            "label": label,
            "timed_s": result.wall_s - sum(probe.calibration_s[1:]),
            "calibration_s": probe.calibration_s, "op_s": probe.op_s,
            "functional_warmup_s": probe.warmup_s, "events": probe.events,
            "trace_ops": probe.trace_ops if trace_ops is None else trace_ops,
            "digest": result.digest, "checks": result.checks})
        self.judge(result, label)
        return result

    def timed(self) -> dict:
        """Untraced passes for ``seconds``; the end-to-end metrics."""
        start = time.perf_counter()
        while True:
            with tempfile.TemporaryDirectory(dir=scratch()) as d:
                self.untraced_pass(Path(d), f"pass{len(self.passes)}")
            elapsed = time.perf_counter() - start
            # Finish the pass in progress, but start none that would end
            # well past the budget (a tag_stream pass takes 20-30 s).
            if (elapsed >= self.seconds or elapsed + self.passes[-1]["timed_s"]
                    > 1.5 * self.seconds):
                break
        for p in self.passes:
            p["kops_per_s"] = (p["events"] + p["trace_ops"]) / p["timed_s"] / 1e3
        wall = statistics.median(p["timed_s"] for p in self.passes)
        # Host load on a shared box swings pass walls by up to 2x for
        # minutes at a time; calibration samples taken between the
        # operations of every pass see the same load, so the ratio of
        # medians cancels it.
        calibration = statistics.median(
            c for p in self.passes for c in p["calibration_s"])
        return {"wall_norm": wall / calibration, "wall_s": wall,
                "kops_per_s": statistics.median(p["kops_per_s"]
                                                for p in self.passes)}

    def traced(self) -> tuple[dict, dict]:
        """Untraced pass, traced pass, re-serve; the per-layer metrics."""
        with tempfile.TemporaryDirectory(dir=scratch()) as d:
            base = self.untraced_pass(Path(d), "untraced")
        base_wall = self.passes[-1]["timed_s"]
        tracer = Tracer()
        with tempfile.TemporaryDirectory(dir=scratch()) as d:
            gc.collect()
            with tracer.installed():
                def call(name: str, fn: Any, *args: Any, **kw: Any) -> Any:
                    return tracer.wrap(fn, "experiments", name)(*args, **kw)
                result = self.w.run_pass(Path(d), call)
            for op, ref in zip(result.ops, base.ops):
                if op.digest != ref.digest:
                    op.errors.append("traced result differs from untraced")
            self.judge(result, "traced")
            rerun_s = 0.0
            if self.w.stored:
                t0 = time.perf_counter()
                self.w.rerun(Path(d))
                rerun_s = time.perf_counter() - t0
        summary = tracer.analyse()
        spans_path = tracer.write(OUT / "spans" / f"{self.w.name}.npz")
        metrics = layer_metrics(summary, result, rerun_s,
                                result.wall_s / base_wall)
        info = {"traced_s": result.wall_s, "untraced_s": base_wall,
                "rerun_s": rerun_s, "spans": summary.spans,
                "span_root_s": summary.root_s,
                "layer_self_s": summary.layer_self_s,
                "calls": summary.calls, "spans_file": str(spans_path)}
        return metrics, info


def scratch() -> Path:
    path = OUT / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sum(results: list, group: str, key: str) -> float:
    return sum(r.metrics.get(group, {}).get(key, 0) for r in results)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Any, result: Any, rerun_s: float,
                  overhead_x: float) -> dict:
    """Per-layer metrics of one traced pass.

    Self times and call counts come from the spans; simulated quantities
    from ``SystemResult.metrics`` of the pass's points.  A layer the
    workload never enters reports zeros.
    """
    rs = result.results
    events = sum(n for name, n in s.calls.items() if name.startswith("event:"))
    touches = s.count("SRAMCache.touch")
    reads = s.count("DRAMCacheArray.lookup_read")
    tags = s.count("TagCache.access")
    ipcs = [x for r in rs for x in r.ipcs]
    m = {
        "workloads.ops": (s.count("TraceCursor.__next__") + s.skipped_ops
                          + s.count("make_trace.__next__")),
        "sim.engine.events": events,
        "sim.engine.ns_per_event": _ratio(s.self_s("sim.engine") * 1e9,
                                          events),
        "sim.cpu.ipc_mean": statistics.fmean(ipcs) if ipcs else 0.0,
        "sim.system.mem_access_calls": s.count("System.mem_access"),
        "sim.warmup.calls": s.count("System.functional_warmup"),
        "snapshot.captures": s.count("System.capture_warm_state"),
        "snapshot.restores": s.count("System.restore_warm_state"),
        "mem.l2.accesses": touches + s.count("SRAMCache.access"),
        "mem.l2.hit_rate": _ratio(s.hits["SRAMCache.touch"], touches),
        "mem.mshr.full_stalls": _sum(rs, "mshr", "full_stalls"),
        "mem.mshr.mean_demand_latency_ps": _ratio(
            _sum(rs, "mshr", "demand_latency_sum_ps"),
            _sum(rs, "mshr", "demand_fills")),
        "mem.mainmem.reads": _sum(rs, "mainmem", "reads"),
        "mem.mainmem.writes": _sum(rs, "mainmem", "writes"),
        "mem.mainmem.read_bus_wait_ps": _sum(rs, "mainmem", "read_bus_wait_ps"),
        "cache.lookups": reads + s.count("DRAMCacheArray.lookup_write"),
        "cache.fills": s.count("DRAMCacheArray.fill"),
        "cache.dram_read_hit_rate": _ratio(s.hits["DRAMCacheArray.lookup_read"],
                                           reads),
        "cache.mapi.accuracy": _ratio(_sum(rs, "mapi", "correct"),
                                      _sum(rs, "mapi", "predictions")),
        "cache.tagcache.accesses": tags,
        "cache.tagcache.hit_rate": _ratio(s.hits["TagCache.access"], tags),
        "cache.tagcache.dram_tag_accesses": sum(
            result.data.get("counts", {}).values()),
        "core.submits": s.count("BaseController.submit"),
        "core.reads_done": sum(r.reads_done for r in rs),
        "core.writebacks": sum(r.writebacks for r in rs),
        "core.forced_flushes": _sum(rs, "controller", "forced_flushes"),
        "core.read_priority_inversions": sum(r.read_priority_inversions
                                             for r in rs),
        "core.mean_read_latency_ps": _ratio(
            _sum(rs, "controller", "read_latency_sum_ps"),
            sum(r.reads_done for r in rs)),
        "dram.issues": (s.count("Channel.issue", on_chip_only=True)
                        + s.count("CommandChannel.issue", on_chip_only=True)),
        "dram.estimates": s.count("Channel.estimate_burst_start"),
        "dram.accesses": _sum(rs, "substrate_total", "total_accesses"),
        "dram.turnarounds": _sum(rs, "substrate_total", "turnarounds"),
        "dram.read_row_hit_rate": _ratio(
            _sum(rs, "substrate_total", "read_row_hits"),
            _sum(rs, "substrate_total", "read_accesses")),
        "dram.faw_stalls": _sum(rs, "substrate_total", "faw_stalls"),
        "dram.rrd_stalls": _sum(rs, "substrate_total", "rrd_stalls"),
        "experiments.store_writes": s.count("ResultStore.store"),
        "experiments.rerun_s": rerun_s,
        "trace.overhead_x": overhead_x,
    }
    for layer, seconds in s.layer_self_s.items():
        m[f"{layer}.self_s"] = seconds
    return {name: m[name] for name in PER_LAYER}


# ------------------------------------------------------------------ output

def emit(run: Run, metrics: dict, units: dict, also: dict, extra: dict,
         trace: int) -> int:
    """Write the run record, print every metric; the exit code."""
    w = run.w
    failed = len(run.failed_ops)
    correct = failed == 0
    also = dict(also, fail_frac=failed / run.attempted)
    record = {"workload": w.name, "seed": w.seed,
              "trace": trace, "correct": correct, "attempted": run.attempted,
              "failed": failed, "failures": run.failed_ops,
              "metrics": metrics, "also": also, "passes": run.passes,
              "provenance": provenance(), **extra}
    path = OUT / "records" / f"{w.name}-seed{w.seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"# {w.name}  seed={w.seed}  trace={trace}  "
          f"passes={len(run.passes)}  record={os.path.relpath(path)}")
    for desc, passed in run.passes[0]["checks"]:
        print(f"# shape check {'PASS' if passed else 'FAIL'}: {desc}")
    for line in run.failed_ops:
        print(f"# FAILED {line}")
    for name, value in {**metrics, **also}.items():
        print(f"{name:<36} {value:>16.6f} {units.get(name) or ALSO_PRINTED[name]}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    imported_s = time.perf_counter() - t0
    return run_workload(WORKLOADS[name](seed), seconds, trace,
                        {"in_process_import_s": imported_s})


def run_workload(workload: Any, seconds: float, trace: int,
                 extra: Optional[dict] = None) -> int:
    """Measure one workload, print its metrics; the exit code."""
    setup = measure_setup(workload)
    run = Run(workload, seconds)
    extra = dict(extra or {}, setup_samples_s=setup)
    if trace:
        metrics, info = run.traced()
        extra["traced"] = info
        return emit(run, metrics, {k: u for k, (u, _) in PER_LAYER.items()},
                    {}, extra, trace)
    timed = run.timed()
    metrics = {"wall_norm": timed["wall_norm"],
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss_mb()}
    wall = timed["wall_s"]
    also = {"wall_s": wall, "kops_per_s": timed["kops_per_s"]}
    if workload.simulates:
        also["sim_kips"] = workload.nominal_insts() / wall / 1000
    else:
        also["tag_kacc_per_s"] = workload.trace_ops() / wall / 1000
    return emit(run, metrics, END_TO_END, also, extra, trace)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own interpreter, then one combined line."""
    from workloads import WORKLOADS
    combined: dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, v in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("quick_grid", "wb_storm_cmd", "tag_stream", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
