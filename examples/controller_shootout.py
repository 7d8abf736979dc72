#!/usr/bin/env python
"""Controller shootout: CD vs ROD vs DCA on one workload mix.

Reproduces the paper's central comparison (its Fig. 7 narrative) on a
single Table I mix, for both DRAM-cache organizations, printing weighted
speedup, miss latency, turnaround behaviour and the pathology counters
each design is supposed to exhibit:

* CD    — read priority inversions (writeback tag reads delaying reads);
* ROD   — few accesses per turnaround (mixed write-queue drains);
* DCA   — inversions ~0, LRs drained opportunistically by OFS.

Run:  python examples/controller_shootout.py [mix-id]
"""

import sys

from repro import System, scaled_config
from repro.workloads import mix_name, mix_profiles

DESIGNS = ("CD", "ROD", "DCA")


def run(design: str, organization: str, mix: int):
    system = System(scaled_config(8), design, mix_profiles(mix),
                    organization=organization, footprint_scale=1 / 20,
                    seed=mix)
    result = system.run(warmup_insts=20_000, measure_insts=60_000,
                        replay_accesses=20_000)
    ofs = system.controller.stats.lr_ofs_issues
    return result, ofs


def main() -> None:
    mix = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print(f"Mix {mix}: {mix_name(mix)}\n")
    for organization in ("sa", "dm"):
        label = ("set-associative (Loh-Hill)" if organization == "sa"
                 else "direct-mapped (Alloy)")
        print(f"--- {label} ---")
        header = (f"{'design':6} {'wspeedup':>9} {'vs CD':>7} {'lat(ns)':>8} "
                  f"{'acc/turn':>9} {'inversions':>11} {'OFS LRs':>8}")
        print(header)
        base = None
        for design in DESIGNS:
            r, ofs = run(design, organization, mix)
            ws = sum(r.ipcs)
            base = base or ws
            print(f"{design:6} {ws:9.3f} {ws / base - 1:+6.1%} "
                  f"{r.mean_read_latency_ps / 1000:8.0f} "
                  f"{r.accesses_per_turnaround:9.1f} "
                  f"{r.read_priority_inversions:11d} {ofs:8d}")
        print()
    print("Expected shape (paper Figs. 8, 14-17): DCA fastest; ROD has the")
    print("fewest accesses per turnaround; CD shows the inversion count;")
    print("DCA's inversions stay near zero while OFS drains its LRs.")


if __name__ == "__main__":
    main()
