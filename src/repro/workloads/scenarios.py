"""Workload scenarios beyond the paper's Table I: sweep-ready frontends.

Two trace sources complement the synthetic per-benchmark generator,
both implementing the trace-source protocol (``name``, ``footprint_bytes``,
``store_fraction``, ``make_trace``) that :class:`repro.sim.system.System`
consumes:

* :class:`ConflictProfile` — an adversarial generator that ping-pongs
  between rows mapping to the same bank, forcing a row conflict on nearly
  every access (worst case for open-row scheduling and RRC);
* :class:`TraceFileWorkload` — replays a recorded trace file, so real
  application traces plug into sweeps next to the synthetic models.

Named multi-core scenarios are registered in :data:`SCENARIOS` and
resolved by :func:`workload_profiles`, which also accepts the dynamic
``trace:<path>`` form.  The experiment layer references scenarios purely
by name (``RunSpec.workload``), keeping specs hashable and cacheable.

Trace-file format (one access per line, ``#`` comments and blank lines
ignored)::

    <gap_instructions> <address> <r|w|0|1> [pc]

Addresses and PCs accept decimal or ``0x`` hex.  The replay cycles when
the file is exhausted, so any budget can be simulated from any trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator

from repro.workloads.generator import BLOCK
from repro.workloads.profiles import BenchmarkProfile, profile


# ------------------------------------------------------------- adversarial

@dataclass(frozen=True)
class ConflictProfile:
    """Row-conflict adversary: bank revisits rarely find their row open.

    Round-robins over ``banks_touched`` slots spaced ``bank_stride_bytes``
    apart and rotates each slot through ``rows_per_bank`` row versions
    spaced ``row_stride_bytes`` apart.  The working set is therefore
    ``banks_touched * rows_per_bank`` rows, mutually far enough apart
    (strides are whole DRAM-row multiples) that they occupy distinct DRAM
    rows spread over few banks even after the cache-organization address
    translation — so consecutive visits to a bank keep evicting each
    other's open row.  This is the RRC/turnaround worst case the paper's
    machinery has to survive, expressible as a sweep axis.
    """

    name: str
    l2_apki: float = 40.0
    store_fraction: float = 0.30
    rows_per_bank: int = 4
    banks_touched: int = 16
    bank_stride_bytes: int = 4096          # next bank, same row (RoBaRaChCo)
    row_stride_bytes: int = 4096 * 64      # next row, same bank
    mean_burst: float = 4.0

    def __post_init__(self):
        if self.rows_per_bank < 2:
            raise ValueError(f"{self.name}: need >= 2 rows to conflict")
        if self.banks_touched < 1:
            raise ValueError(f"{self.name}: need >= 1 bank")

    @property
    def footprint_bytes(self) -> int:
        return self.row_stride_bytes * self.rows_per_bank

    def prefill_blocks(self) -> list[tuple[int, bool]]:
        """Exact warm set: every block of every (slot, row) the trace
        cycles through.  The pattern ignores capacity scaling, so the
        scaled contiguous prefill would leave most rows cold and turn
        the designed conflicts into compulsory misses."""
        rng = random.Random(0xC04F11C7)   # fixed: prefill is part of the spec
        blocks_per_slot = self.bank_stride_bytes // BLOCK
        out = []
        for r in range(self.rows_per_bank):
            for s in range(self.banks_touched):
                base = s * self.bank_stride_bytes + r * self.row_stride_bytes
                out.extend((base + b * BLOCK,
                            rng.random() < self.store_fraction)
                           for b in range(blocks_per_slot))
        return out

    def make_trace(self, seed: int = 0, core_offset: int = 0,
                   footprint_scale: float = 1.0) -> Iterator[tuple]:
        # footprint_scale is ignored deliberately: the adversary's power
        # is its address *pattern*, which capacity scaling must not bend.
        rng = random.Random(seed)
        mean_gap = 1000.0 / self.l2_apki

        def gen() -> Iterator[tuple]:
            bank = 0
            row = [0] * self.banks_touched
            pc = 0x600000
            while True:
                burst = 1 + int(rng.expovariate(1.0 / self.mean_burst))
                gap = max(0, int(rng.expovariate(1.0 / (mean_gap * burst))))
                for k in range(burst):
                    r = row[bank]
                    row[bank] = (r + 1) % self.rows_per_bank
                    addr = (core_offset + bank * self.bank_stride_bytes
                            + r * self.row_stride_bytes)
                    # touch a random block within the row: realistic CAS
                    # spread without granting any row-buffer hits
                    addr += (rng.randrange(self.bank_stride_bytes // BLOCK)
                             * BLOCK)
                    yield (gap if k == 0 else 1, addr,
                           rng.random() < self.store_fraction, pc + 64 * bank)
                    bank = (bank + 1) % self.banks_touched
        return gen()


# ------------------------------------------------------------- trace replay

@dataclass(frozen=True)
class TraceFileWorkload:
    """Cyclic replay of a recorded trace file (see module docstring)."""

    path: str
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or Path(self.path).stem

    @cached_property
    def _ops(self) -> tuple[tuple, ...]:
        ops = []
        text = Path(self.path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{self.path}:{lineno}: expected 'gap addr r|w [pc]', "
                    f"got {line!r}")
            try:
                gap = int(parts[0], 0)
                addr = int(parts[1], 0)
                is_write = {"r": False, "0": False, "w": True, "1": True}[
                    parts[2].lower()]
                pc = int(parts[3], 0) if len(parts) == 4 else 0x700000
            except (ValueError, KeyError):
                raise ValueError(
                    f"{self.path}:{lineno}: malformed trace line {line!r}"
                ) from None
            if gap < 0 or addr < 0:
                raise ValueError(
                    f"{self.path}:{lineno}: negative gap/address")
            if addr >= 1 << 44:
                # The system gives each core a private 2^44-byte window
                # (core_offset = i << 44); a larger raw address would
                # alias into another core's window.  Recorded traces with
                # full virtual addresses must be rebased first.
                raise ValueError(
                    f"{self.path}:{lineno}: address {addr:#x} >= 2^44; "
                    f"rebase the trace to a per-core offset below 16 TiB")
            ops.append((gap, addr, is_write, pc))
        if not ops:
            raise ValueError(f"{self.path}: trace file holds no accesses")
        return tuple(ops)

    @property
    def footprint_bytes(self) -> int:
        """Volume of *distinct* blocks touched, not the address span.

        The warm-up prefill sizes its bulk fill from this, so a sparse
        trace (few blocks scattered over a wide range) must report what
        it actually touches — the max-address span of a recorded trace
        could be terabytes and would explode the prefill.
        """
        return len({op[1] // BLOCK for op in self._ops}) * BLOCK

    def prefill_blocks(self) -> list[tuple[int, bool]]:
        """The exact ``(block_addr, dirty)`` set the warm-up should seed.

        Recorded traces touch arbitrary addresses, not a contiguous range
        from the core base, so the generic contiguous prefill would warm
        blocks the trace never visits (and leave the real ones cold).
        The system prefers this hook when a workload provides it.  A
        block is dirty when the trace ever writes it.
        """
        dirty: dict[int, bool] = {}
        for _gap, addr, is_write, _pc in self._ops:
            block = (addr // BLOCK) * BLOCK
            dirty[block] = dirty.get(block, False) or is_write
        return sorted(dirty.items())

    @property
    def store_fraction(self) -> float:
        return sum(op[2] for op in self._ops) / len(self._ops)

    def make_trace(self, seed: int = 0, core_offset: int = 0,
                   footprint_scale: float = 1.0) -> Iterator[tuple]:
        # Replay is exact: neither the seed nor the footprint scale bends
        # recorded addresses; the seed only rotates the starting position
        # so co-scheduled copies of one trace don't run in lockstep.
        ops = self._ops
        start = seed % len(ops)

        def gen() -> Iterator[tuple]:
            i = start
            n = len(ops)
            while True:
                gap, addr, is_write, pc = ops[i]
                yield gap, core_offset + addr, is_write, pc
                i += 1
                if i == n:
                    i = 0
        return gen()


# ---------------------------------------------------------------- registry

def _storm(name: str, base: str) -> BenchmarkProfile:
    """A write-heavy variant of a profile: maximal writeback pressure."""
    b = profile(base)
    return replace(b, name=name, store_fraction=0.90,
                   l2_apki=max(b.l2_apki, 30.0))


#: Named multi-core workload scenarios, sweepable via ``RunSpec.workload``.
SCENARIOS: dict[str, tuple] = {
    # every core write-dominated: continuous forced-flush pressure
    "adversarial_writeback": tuple(
        _storm(f"wbstorm{i}", base)
        for i, base in enumerate(("lbm", "GemsFDTD", "leslie3d", "lbm"))),
    # every access a row conflict: worst case for open-row scheduling
    "adversarial_conflict": tuple(
        ConflictProfile(f"conflict{i}") for i in range(4)),
    # one adversary next to three victims: interference scenario
    "conflict_vs_streams": (
        ConflictProfile("conflict0"), profile("libquantum"),
        profile("bwaves"), profile("leslie3d")),
}


def workload_names() -> list[str]:
    return sorted(SCENARIOS)


def workload_profiles(name: str) -> list:
    """Resolve a workload scenario name to its per-core trace sources.

    Accepts registered scenario names (:func:`workload_names`) and the
    dynamic ``trace:<path>`` form (single-core replay of a trace file).
    """
    if name.startswith("trace:"):
        path = name[len("trace:"):]
        if not path:
            raise ValueError("trace: workload needs a file path")
        return [TraceFileWorkload(path)]
    try:
        return list(SCENARIOS[name])
    except KeyError:
        raise KeyError(
            f"unknown workload scenario {name!r}; known: {workload_names()} "
            f"or 'trace:<path>'") from None
