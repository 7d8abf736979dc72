"""Benchmark: regenerate the paper's Fig. 17 at reduced scale."""

from conftest import run_and_check


def test_fig17(benchmark, params, mixes):
    run_and_check(benchmark, "fig17", params, mixes, required_pass=0.5)
