"""Benchmark: Table I workload-mix construction (deterministic)."""

from conftest import run_and_check


def test_table1(benchmark, params, mixes):
    run_and_check(benchmark, "table1", params, mixes, required_pass=1.0)
