"""Benchmark: regenerate the paper's Fig. 11 at reduced scale."""

from conftest import run_and_check


def test_fig11(benchmark, params, mixes):
    run_and_check(benchmark, "fig11", params, mixes, required_pass=0.5)
