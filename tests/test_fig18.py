"""Fig. 18 tag-cache study: pinned counts and one request stream per mix."""

from __future__ import annotations

import functools

from repro.experiments import fig18_tagcache as fig18
from repro.experiments.common import SimParams
from repro.workloads.table1 import mix_profiles

#: DRAM tag accesses of mix 1 at quick scale, 10k accesses per core
MIX1_10K = {0: 43409, 32: 117461, 64: 114994, 96: 112726, 128: 110564,
            192: 105998}

#: the same at the default 40k accesses per core: the stream perfbench's
#: ``tag_stream`` workload replays, whose own check is only "positive"
MIX1_40K = {0: 176177, 32: 498205, 64: 488144, 96: 478724, 128: 469401,
            192: 450044}


def test_tag_traffic_pinned():
    counts = fig18.tag_traffic(1, SimParams.quick(), accesses_per_core=10_000)
    assert counts == MIX1_10K


def test_benchmark_stream_pinned():
    assert fig18.tag_traffic(1, SimParams.quick()) == MIX1_40K


def test_run_builds_each_trace_once_per_mix(monkeypatch):
    params = SimParams.quick()
    short = functools.partial(fig18.tag_traffic, accesses_per_core=1_000)
    per_mix = [short(m, params) for m in (1, 2)]

    built = []
    make_trace = fig18.make_trace

    def counting(*args, **kwargs):
        built.append(kwargs["seed"])
        return make_trace(*args, **kwargs)

    monkeypatch.setattr(fig18, "make_trace", counting)
    monkeypatch.setattr(fig18, "tag_traffic", short)
    _report, data, checks = fig18.run(params, [1, 2])

    # One trace per core per mix, not one per core per tag-cache size.
    assert sorted(built) == sorted(m * 100 + i for m in (1, 2)
                                   for i in range(len(mix_profiles(m))))
    assert data["counts"] == {str(kb): sum(c[kb] for c in per_mix)
                              for kb in fig18.SIZES_KB}
    assert len(checks) == 3
