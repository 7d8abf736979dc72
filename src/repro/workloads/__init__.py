"""Workloads: synthetic SPEC CPU2006 benchmark models, Table I mixes, and
sweepable scenarios (adversarial generators, trace-file replay)."""

from repro.workloads.profiles import BenchmarkProfile, PROFILES, profile
from repro.workloads.generator import make_trace
from repro.workloads.table1 import TABLE1_MIXES, mix_profiles, mix_name
from repro.workloads.scenarios import (
    SCENARIOS,
    ConflictProfile,
    TraceFileWorkload,
    workload_names,
    workload_profiles,
)

__all__ = [
    "BenchmarkProfile",
    "PROFILES",
    "profile",
    "make_trace",
    "TABLE1_MIXES",
    "mix_profiles",
    "mix_name",
    "SCENARIOS",
    "ConflictProfile",
    "TraceFileWorkload",
    "workload_names",
    "workload_profiles",
]
