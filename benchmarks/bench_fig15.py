"""Benchmark: regenerate the paper's Fig. 15 at reduced scale."""

from conftest import run_and_check


def test_fig15(benchmark, params, mixes):
    run_and_check(benchmark, "fig15", params, mixes, required_pass=0.5)
