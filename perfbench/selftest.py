"""Self-tests of the benchmark, at tiny budgets.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from repro.experiments import fig18_tagcache  # noqa: E402
from repro.experiments.common import SimParams  # noqa: E402
from instrument import Tracer  # noqa: E402
from workloads import (GOLDEN, WORKLOADS, Op, PassResult,  # noqa: E402
                       QuickGrid, TagStream, WbStormCmd)

TINY = SimParams(warmup_insts=3_000, measure_insts=10_000,
                 replay_accesses=3_000)


@contextlib.contextmanager
def tiny_bench(out: Path):
    """Short fig18 streams, one set-up sample, records under ``out``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fig18_tagcache, "tag_traffic", functools.partial(
            fig18_tagcache.tag_traffic, accesses_per_core=10_000))
        mp.setattr(bench, "SETUP_REPEATS", 1)
        mp.setattr(bench, "OUT", out)
        yield


def tiny_workloads() -> list:
    return [QuickGrid(1, TINY), WbStormCmd(1, TINY), TagStream(1, TINY)]


def measure(workload, trace: int) -> tuple[int, dict]:
    """Run one workload; its exit code and parsed result line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.run_workload(workload, seconds=0, trace=trace)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perfbench_out")
    with tiny_bench(out):
        return {(w.name, trace): measure(w, trace)
                for w in tiny_workloads() for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, name, trace):
    code, line = runs[(name, trace)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = (bench.END_TO_END if trace == 0
                else {k: unit for k, (unit, _) in bench.PER_LAYER.items()})
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert line["attempted"] >= 1
    assert (code == 0) == line["correct"] == (line["failed"] == 0)


def test_traced_results_equal_untraced(runs):
    # A traced op whose digest differs from the untraced pass is a failure.
    for name in WORKLOADS:
        code, line = runs[(name, 1)]
        assert line["failed"] == 0 and code == 0, name


def test_layer_shapes(runs):
    def layer(name: str) -> dict:
        return {k: v["value"] for k, v in runs[(name, 1)][1]["metrics"].items()}

    grid, storm, tags = (layer(n) for n in WORKLOADS)
    assert grid["sim.warmup.calls"] == 6
    assert storm["sim.warmup.calls"] == 1
    assert storm["snapshot.captures"] == 1
    assert storm["snapshot.restores"] == 2
    assert grid["snapshot.restores"] == 0
    for sim in (grid, storm):
        assert sim["cache.tagcache.accesses"] == 0
        assert sim["cache.tagcache.self_s"] == 0
        assert sim["sim.engine.events"] > 0
    for absent in ("core", "sim.engine", "dram", "sim.warmup"):
        assert tags[f"{absent}.self_s"] == 0, absent
    assert tags["sim.engine.events"] == tags["core.submits"] == 0
    assert tags["cache.tagcache.accesses"] > 0
    assert tags["workloads.ops"] == 6 * 4 * 10_000   # sizes x cores x ops
    assert storm["dram.rrd_stalls"] > 0        # command fidelity is real


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    workload = QuickGrid(1, TINY)
    workload.setup()
    tracer = Tracer()
    with tracer.installed():
        result = workload.run_pass(
            tmp_path, lambda name, fn, *a, **k:
            tracer.wrap(fn, "experiments", name)(*a, **k))
    summary = tracer.analyse()
    total = sum(summary.layer_self_s.values())
    assert total == pytest.approx(summary.root_s, rel=1e-6)
    assert total == pytest.approx(result.wall_s, rel=0.02)


def test_tampered_golden_entry_fails_the_run(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    golden["entries"]["DCA"]["elapsed_ps"] += 1
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    with tiny_bench(tmp_path / "out"):
        code, line = measure(QuickGrid(1, mixes=(1,), golden=tampered), 0)
    assert code == 1
    assert not line["correct"]
    assert (line["attempted"], line["failed"]) == (3, 1)


def test_a_digest_that_changes_between_passes_fails():
    run = bench.Run(QuickGrid(1), seconds=0)
    run.judge(PassResult(1.0, [Op("a", "x"), Op("b", "y")]), "pass0")
    run.judge(PassResult(1.0, [Op("a", "x"), Op("b", "z")]), "pass1")
    assert run.attempted == 4
    assert len(run.failed_ops) == 1 and "pass1:b" in run.failed_ops[0]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quick_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
