"""Benchmark: regenerate the paper's Fig. 19 at reduced scale."""

from conftest import run_and_check


def test_fig19(benchmark, params, mixes):
    run_and_check(benchmark, "fig19", params, mixes, required_pass=0.5)
