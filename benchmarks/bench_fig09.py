"""Benchmark: regenerate the paper's Fig. 9 at reduced scale."""

from conftest import run_and_check


def test_fig09(benchmark, params, mixes):
    run_and_check(benchmark, "fig09", params, mixes, required_pass=0.5)
