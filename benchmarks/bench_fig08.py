"""Benchmark: regenerate the paper's Fig. 8 at reduced scale."""

from conftest import run_and_check


def test_fig08(benchmark, params, mixes):
    run_and_check(benchmark, "fig08", params, mixes, required_pass=0.5)
