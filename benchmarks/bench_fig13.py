"""Benchmark: regenerate the paper's Fig. 13 at reduced scale."""

from conftest import run_and_check


def test_fig13(benchmark, params, mixes):
    run_and_check(benchmark, "fig13", params, mixes, required_pass=0.5)
