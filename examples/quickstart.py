#!/usr/bin/env python
"""Quickstart: simulate one multiprogrammed mix on the DCA controller.

Builds the paper's Table II system (capacity-scaled for speed), runs the
first Table I workload mix through the DRAM-Cache-Aware controller, and
prints the headline metrics.

Run:  python examples/quickstart.py
"""

from repro import System, scaled_config
from repro.workloads import mix_name, mix_profiles


def main() -> None:
    cfg = scaled_config(8)          # Table II, capacities / 8
    mix = 1
    print(f"Simulating Table I mix {mix}: {mix_name(mix)}")

    system = System(
        cfg,
        design="DCA",               # "CD" | "ROD" | "DCA"
        benchmarks=mix_profiles(mix),
        organization="sa",          # "sa" (Loh-Hill) | "dm" (Alloy)
        footprint_scale=1 / 20,     # workload footprints scaled with cache
        seed=1,
    )
    # functional warm-up (cache contents), then timed warm-up + measure
    result = system.run(warmup_insts=20_000, measure_insts=60_000,
                        replay_accesses=20_000)

    print(f"\nPer-core IPC: "
          + ", ".join(f"{b}={i:.3f}"
                      for b, i in zip(result.benchmarks, result.ipcs)))
    print(f"DRAM-cache read hit rate:  {result.dram_read_hit_rate:.1%}")
    print(f"Mean L2 miss latency:      {result.mean_read_latency_ps / 1000:.1f} ns")
    print(f"Accesses per turnaround:   {result.accesses_per_turnaround:.1f}")
    print(f"Read row-buffer hit rate:  {result.read_row_hit_rate:.1%}")
    print(f"Requests: {result.reads_done} reads, {result.writebacks} "
          f"writebacks, {result.refills} refills")
    print(f"Main memory: {result.mainmem_reads} fetches, "
          f"{result.mainmem_writes} victim writes")


if __name__ == "__main__":
    main()
