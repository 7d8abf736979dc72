"""Benchmark: regenerate the paper's Fig. 12 at reduced scale."""

from conftest import run_and_check


def test_fig12(benchmark, params, mixes):
    run_and_check(benchmark, "fig12", params, mixes, required_pass=0.5)
