"""Benchmark harness configuration.

Each ``bench_<id>.py`` regenerates one paper artefact at reduced scale
(quick SimParams, 3 Table I mixes) through the experiment runner, by id,
and asserts its shape checks.  A session-scoped scratch cache directory
lets figures that share the simulation grid (8-17) reuse each other's
runs *within* the session while still measuring real simulation work on
first touch.  Importing this file does nothing: the directory is made,
and ``REPRO_CACHE_DIR`` pointed at it, only when a benchmark runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import SimParams
from repro.experiments.runner import EXPERIMENTS, run_union

#: mixes used by benchmark-scale experiment runs
BENCH_MIXES = [1, 2, 3]


@pytest.fixture(scope="session", autouse=True)
def scratch_cache_dir(tmp_path_factory):
    """Point the default result store at a fresh directory for the session."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("repro-bench-cache")
        mp.setenv("REPRO_CACHE_DIR", str(path))
        yield path


@pytest.fixture(scope="session")
def params() -> SimParams:
    return SimParams.quick()


@pytest.fixture(scope="session")
def mixes() -> list[int]:
    return BENCH_MIXES


def run_and_check(benchmark, exp_id, params, mixes, required_pass=1.0):
    """Run one experiment under pytest-benchmark and verify its checks."""
    exp = EXPERIMENTS[exp_id]
    out = {}

    def once():
        results, failures = run_union({exp_id: exp.plan(mixes)}, params)
        assert not failures, f"{exp_id}: {len(failures)} points failed"
        _report, data, out["checks"] = exp.report(results, params, mixes)
        return data

    benchmark.pedantic(once, rounds=1, iterations=1)
    checks = out["checks"]
    passed = sum(1 for _d, ok in checks if ok)
    assert passed >= required_pass * len(checks), (
        f"{exp_id}: only {passed}/{len(checks)} shape checks passed: "
        f"{[(d, ok) for d, ok in checks if not ok]}")
