"""Benchmark: regenerate the paper's Fig. 16 at reduced scale."""

from conftest import run_and_check


def test_fig16(benchmark, params, mixes):
    run_and_check(benchmark, "fig16", params, mixes, required_pass=0.5)
