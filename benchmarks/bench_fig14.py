"""Benchmark: regenerate the paper's Fig. 14 at reduced scale."""

from conftest import run_and_check


def test_fig14(benchmark, params, mixes):
    run_and_check(benchmark, "fig14", params, mixes, required_pass=0.5)
