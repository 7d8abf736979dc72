"""Benchmark: regenerate the paper's Fig. 10 at reduced scale."""

from conftest import run_and_check


def test_fig10(benchmark, params, mixes):
    run_and_check(benchmark, "fig10", params, mixes, required_pass=0.5)
