"""Benchmark: Table II parameter reproduction (deterministic)."""

from conftest import run_and_check


def test_table2(benchmark, params, mixes):
    run_and_check(benchmark, "table2", params, mixes, required_pass=1.0)
