"""Benchmark: regenerate the paper's Fig. 18 (tag-cache traffic) at reduced scale."""

from conftest import run_and_check


def test_fig18(benchmark, params, mixes):
    run_and_check(benchmark, "fig18", params, mixes, required_pass=1.0)
