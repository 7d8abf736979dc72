"""Synthetic models of the paper's SPEC CPU2006 benchmarks.

The paper drives its evaluation with the 11 memory-intensive SPEC CPU2006
benchmarks appearing in Table I.  We cannot ship SPEC traces, so each
benchmark is modelled by the handful of memory-behaviour parameters that
the studied phenomena actually depend on:

* ``l2_apki`` — post-L1 cache accesses per kilo-instruction (memory
  intensity: how hard the mix presses on the DRAM cache);
* ``store_fraction`` — fraction of those that are stores (sets the dirty
  footprint and hence the writeback/refill pressure that creates LRs);
* ``seq_fraction`` / ``num_streams`` — streaming vs. pointer-chasing
  structure (sets row-buffer locality and bank-level parallelism);
* ``footprint_mb`` — working-set size at the paper's full scale (sets the
  DRAM-cache hit-rate regime; scaled together with the cache capacity).

Values are calibrated to the published memory characterisations of SPEC
CPU2006 (high-MPKI pointer-chasers: mcf, omnetpp; heavy streamers:
libquantum, lbm, bwaves, leslie3d, GemsFDTD; write-heavy: lbm, GemsFDTD,
leslie3d).  Absolute numbers are approximate by design — the evaluation
normalizes within a mix, so what matters is that the *spread* of
intensity, locality, and write share matches the paper's workload suite.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkProfile:
    """Memory-behaviour summary of one benchmark (see module docstring)."""

    name: str
    l2_apki: float          # L2 accesses per 1000 instructions
    store_fraction: float   # P(access is a store)
    seq_fraction: float     # P(burst comes from a sequential stream)
    num_streams: int        # concurrent sequential walkers
    footprint_mb: float     # working set at full (paper) scale
    jump_prob: float = 0.002  # P(stream restarts at a random position)
    mean_burst: float = 6.0   # mean ops per access burst (loop-body clustering)

    def __post_init__(self):
        if not 0 < self.l2_apki <= 1000:
            raise ValueError(f"{self.name}: l2_apki out of range")
        for f in ("store_fraction", "seq_fraction"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{self.name}: {f} must be in [0, 1]")
        if self.num_streams < 1:
            raise ValueError(f"{self.name}: need at least one stream")
        if self.footprint_mb <= 0:
            raise ValueError(f"{self.name}: footprint must be positive")

    @property
    def mean_gap_instructions(self) -> float:
        """Mean non-memory instructions between L2 accesses."""
        return 1000.0 / self.l2_apki

    @property
    def footprint_bytes(self) -> int:
        return int(self.footprint_mb * 2**20)

    def make_trace(self, seed: int = 0, core_offset: int = 0,
                   footprint_scale: float = 1.0):
        """Build this benchmark's access stream (the trace-source protocol).

        Every workload the system can run — synthetic profile,
        adversarial scenario, trace-file replay — exposes ``name``,
        ``footprint_bytes``, ``store_fraction`` and this method; the
        :class:`repro.sim.system.System` only ever talks to that surface.
        """
        from repro.workloads.generator import make_trace
        return make_trace(self, seed=seed, core_offset=core_offset,
                          footprint_scale=footprint_scale)


#: The 11 benchmarks of the paper's Table I.
PROFILES: dict[str, BenchmarkProfile] = {p.name: p for p in [
    # pointer-chasing, very memory-intensive
    BenchmarkProfile("mcf",        l2_apki=45.0, store_fraction=0.15,
                     seq_fraction=0.10, num_streams=4, footprint_mb=320),
    BenchmarkProfile("omnetpp",    l2_apki=18.0, store_fraction=0.20,
                     seq_fraction=0.15, num_streams=3, footprint_mb=160),
    # heavy streamers
    BenchmarkProfile("libquantum", l2_apki=30.0, store_fraction=0.25,
                     seq_fraction=0.95, num_streams=2, footprint_mb=128),
    BenchmarkProfile("lbm",        l2_apki=28.0, store_fraction=0.45,
                     seq_fraction=0.90, num_streams=6, footprint_mb=256),
    BenchmarkProfile("bwaves",     l2_apki=16.0, store_fraction=0.25,
                     seq_fraction=0.90, num_streams=4, footprint_mb=208),
    BenchmarkProfile("leslie3d",   l2_apki=18.0, store_fraction=0.35,
                     seq_fraction=0.85, num_streams=5, footprint_mb=176),
    BenchmarkProfile("GemsFDTD",   l2_apki=22.0, store_fraction=0.35,
                     seq_fraction=0.80, num_streams=6, footprint_mb=224),
    # mixed
    BenchmarkProfile("milc",       l2_apki=20.0, store_fraction=0.30,
                     seq_fraction=0.40, num_streams=4, footprint_mb=192),
    BenchmarkProfile("soplex",     l2_apki=25.0, store_fraction=0.25,
                     seq_fraction=0.50, num_streams=4, footprint_mb=144),
    BenchmarkProfile("astar",      l2_apki=12.0, store_fraction=0.15,
                     seq_fraction=0.20, num_streams=2, footprint_mb=96),
    BenchmarkProfile("gcc",        l2_apki=8.0,  store_fraction=0.25,
                     seq_fraction=0.45, num_streams=3, footprint_mb=64),
]}


def profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by its SPEC name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(PROFILES)}"
        ) from None
