#!/usr/bin/env python
"""Remapping study: XOR permutation interleaving on top of each design.

The paper's Fig. 9 experiment: Zhang et al.'s permutation-based bank
remapping mitigates read-read conflicts for *any* controller, but only
DCA additionally removes read priority inversion — so DCA keeps a margin
over CD even when both use remapping, while ROD (which never had the
conflict problem) gains least and keeps paying turnarounds.

Run:  python examples/remapping_study.py [mix-id] [--quick]

``--quick`` shrinks the instruction budgets to smoke-test scale (used by
the CI examples-smoke job); the qualitative shape usually survives, the
exact margins need the full budget.
"""

import sys

from repro import System, scaled_config
from repro.workloads import mix_name, mix_profiles


def run(design: str, remap: bool, mix: int,
        measure_insts: int = 60_000) -> tuple[float, float]:
    system = System(scaled_config(8), design, mix_profiles(mix),
                    organization="sa", xor_remap=remap,
                    footprint_scale=1 / 20, seed=mix)
    r = system.run(warmup_insts=20_000, measure_insts=measure_insts,
                   replay_accesses=20_000)
    return sum(r.ipcs), r.read_row_hit_rate


def main() -> None:
    args = [a for a in sys.argv[1:] if a != "--quick"]
    quick = "--quick" in sys.argv[1:]
    measure = 15_000 if quick else 60_000
    mix = int(args[0]) if args else 4
    print(f"Mix {mix}: {mix_name(mix)} (set-associative)\n")
    print(f"{'variant':10} {'wspeedup':>9} {'vs CD':>7} {'row-hit':>8}")
    base = None
    for remap in (False, True):
        for design in ("CD", "ROD", "DCA"):
            ws, rh = run(design, remap, mix, measure_insts=measure)
            base = base or ws
            label = ("XOR+" if remap else "") + design
            print(f"{label:10} {ws:9.3f} {ws / base - 1:+6.1%} {rh:8.1%}")
    print("\nExpected shape (paper Fig. 9): every design gains from")
    print("remapping; XOR+DCA stays the best overall because remapping")
    print("cannot fix read priority inversion, only row conflicts.")


if __name__ == "__main__":
    main()
