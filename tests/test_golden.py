"""Golden-run regression pins: committed metric snapshots must not drift.

Five fixtures, one mechanism:

* ``tests/golden/fig08_quick.json`` — the complete results (headline
  fields + full metrics tree) of a small fig08-style run set on the
  default **burst** substrate.  Any change to simulated behaviour —
  intended or not — trips this test with a readable per-metric diff, so
  refactors that are supposed to be behaviour-preserving (snapshot/
  restore, scheduler fast paths, warm-state forking, the substrate
  protocol extraction) cannot silently bend results.
* ``tests/golden/command_quick.json`` — the same pin for the
  **command-level** substrate model (``substrate.fidelity=command``),
  freezing the refresh/tFAW/tRRD timing composition.
* ``tests/golden/mainmem_banked_quick.json`` — the same pin with the
  **banked** off-chip memory model (``mainmem.model=banked``), freezing
  the DDR3-style multi-channel/multi-rank timing below the cache
  (including the tCS rank-to-rank bus turnaround) and the
  ``mainmem_dev``/``mainmem_total`` metric subtrees.
* ``tests/golden/dm_quick.json`` — the burst pin for the **direct-mapped**
  (Alloy) organization, freezing the TAD access protocol and the
  one-way tag store under every controller design.
* ``tests/golden/frfcfs_quick.json`` — the burst pin under the FR-FCFS
  scheduler (every other pin runs BLISS), freezing FR-FCFS as BLISS
  with an empty blacklist.

One more fixture pins the functional warm-up itself rather than results:
``tests/golden/warm_state_quick.json`` holds a sha256 per warm state
(:meth:`System.capture_warm_state` image) for both organizations under
the default inputs, Lee writeback and a ``prefill_blocks`` workload.
A result pin only sees the warm state through the run that follows it;
this one sees every tag, dirty bit, LRU stamp and trace position.

When a behaviour change is *intended*, regenerate the fixtures and
commit them together with the change::

    REPRO_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_golden.py

The fixtures are calibrated on CI's platform (CPython on x86-64 Linux
glibc); exotic libm implementations could differ in float ulps.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import RunSpec, SimParams, build_system, run_one
from repro.sim.system import RESULT_SCHEMA_VERSION
from repro.snapshot import WARM_STATE_VERSION, WarmState

GOLDEN_DIR = Path(__file__).parent / "golden"

#: one point per controller design over Table I mix 1 at quick scale
BURST_SPECS = [RunSpec(d, "sa", mix_id=1) for d in ("CD", "ROD", "DCA")]

#: the same three designs over the direct-mapped organization
DM_SPECS = [RunSpec(d, "dm", mix_id=1) for d in ("CD", "ROD", "DCA")]

#: command-fidelity pins: two designs so cross-design timing interplay
#: (PR/LR scheduling over refresh + rank throttling) is frozen too
COMMAND_SPECS = [
    RunSpec(d, "sa", mix_id=1, config=(("substrate.fidelity", "command"),))
    for d in ("CD", "DCA")
]

#: banked-mainmem pins: the off-chip topology below the cache
BANKED_SPECS = [
    RunSpec(d, "sa", mix_id=1, config=(("mainmem.model", "banked"),))
    for d in ("CD", "DCA")
]

#: the alternative scheduler: every other result pin runs BLISS
FRFCFS_SPECS = [RunSpec(d, "sa", mix_id=1, scheduler="frfcfs")
                for d in ("CD", "ROD", "DCA")]

#: warm-state pins: every input that steers the functional warm-up.  The
#: conflict_vs_streams workload seeds core 0 from its prefill_blocks and
#: then bulk-merges the other cores' ranges into the populated array.
WARM_SPECS = [
    RunSpec("CD", org, **extra)
    for org in ("sa", "dm")
    for extra in ({"mix_id": 1},
                  {"mix_id": 1, "lee_writeback": True},
                  {"workload": "conflict_vs_streams"})
]


def compute_entries(specs) -> dict:
    params = SimParams.quick()
    entries = {}
    for spec in specs:
        result = run_one(spec, params)
        data = result.to_cache_dict()
        data.pop("meta")            # provenance, not behaviour
        entries[spec.label()] = data
    return entries


def walk_diff(expected, actual, path: str = "") -> list[str]:
    """Readable leaf-level diff lines between two nested structures."""
    lines: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                lines.append(f"  {sub}: missing (golden {expected[key]!r})")
            elif key not in expected:
                lines.append(f"  {sub}: unexpected (got {actual[key]!r})")
            else:
                lines.extend(walk_diff(expected[key], actual[key], sub))
    elif (isinstance(expected, list) and isinstance(actual, list)
          and len(expected) == len(actual)):
        for i, (e, a) in enumerate(zip(expected, actual)):
            lines.extend(walk_diff(e, a, f"{path}[{i}]"))
    elif expected != actual:
        lines.append(f"  {path}: golden {expected!r} != got {actual!r}")
    return lines


def check_golden(golden_path: Path, specs) -> None:
    entries = compute_entries(specs)

    if os.environ.get("REPRO_REGOLD"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(
            {"result_schema_version": RESULT_SCHEMA_VERSION,
             "params": "quick", "entries": entries},
            indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {golden_path}")

    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; generate with "
        f"REPRO_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_golden.py")
    golden = json.loads(golden_path.read_text())
    assert golden["result_schema_version"] == RESULT_SCHEMA_VERSION, (
        "result schema changed: regenerate the golden fixture "
        "(REPRO_REGOLD=1) and review the diff it pins")

    diffs: list[str] = []
    for label, expected in golden["entries"].items():
        actual = entries.get(label)
        if actual is None:
            diffs.append(f"  {label}: missing from run set")
            continue
        diffs.extend(walk_diff(expected, actual, label))
    assert not diffs, (
        "simulated results drifted from the golden run "
        "(intended? regenerate with REPRO_REGOLD=1 and commit the diff):\n"
        + "\n".join(diffs[:40])
        + (f"\n  ... and {len(diffs) - 40} more" if len(diffs) > 40 else ""))


def test_golden_fig08_quick():
    check_golden(GOLDEN_DIR / "fig08_quick.json", BURST_SPECS)


def test_golden_dm_quick():
    check_golden(GOLDEN_DIR / "dm_quick.json", DM_SPECS)


def test_golden_command_fidelity():
    check_golden(GOLDEN_DIR / "command_quick.json", COMMAND_SPECS)


def test_golden_mainmem_banked():
    check_golden(GOLDEN_DIR / "mainmem_banked_quick.json", BANKED_SPECS)


def test_golden_frfcfs():
    check_golden(GOLDEN_DIR / "frfcfs_quick.json", FRFCFS_SPECS)


def warm_state_digest(warm: WarmState) -> str:
    """sha256 of a warm state's contents: the DRAM-cache columns and
    clock, the L2 sets (each in LRU key order) and dirty-row index, and
    the trace positions."""
    array, l2 = warm.array_state, warm.l2_state
    h = hashlib.sha256()
    h.update(json.dumps([array["organization"], array["clock"],
                         warm.trace_counts]).encode())
    h.update(np.array(array["tags"], dtype=np.int64).tobytes())
    h.update(array["dirty"])
    h.update(array["stamp"])
    h.update(json.dumps(
        [[s, list(tags.items())] for s, tags in sorted(l2["sets"].items())]
    ).encode())
    h.update(json.dumps(
        sorted([row, sorted(blocks)] for row, blocks
               in l2["dirty_rows"].items())).encode())
    return h.hexdigest()


def test_golden_warm_states():
    params = SimParams.quick()
    digests = {}
    for spec in WARM_SPECS:
        system = build_system(spec, params)
        system.functional_warmup(replay_accesses=params.replay_accesses)
        digests[f"{spec.organization}:{spec.label()}"] = \
            warm_state_digest(system.capture_warm_state())
    golden_path = GOLDEN_DIR / "warm_state_quick.json"
    if os.environ.get("REPRO_REGOLD"):
        golden_path.write_text(json.dumps(
            {"warm_state_version": WARM_STATE_VERSION, "params": "quick",
             "entries": digests}, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {golden_path}")
    golden = json.loads(golden_path.read_text())
    assert golden["warm_state_version"] == WARM_STATE_VERSION, (
        "warm state schema changed: regenerate the fixture (REPRO_REGOLD=1)")
    drifted = sorted(k for k in golden["entries"] | digests
                     if golden["entries"].get(k) != digests.get(k))
    assert not drifted, f"functional warm state drifted: {drifted}"


def test_banked_golden_exercises_the_topology():
    """The banked pin must pin real multi-rank traffic below the cache."""
    golden_path = GOLDEN_DIR / "mainmem_banked_quick.json"
    if not golden_path.exists():
        pytest.skip("banked golden not generated yet")
    golden = json.loads(golden_path.read_text())
    for label, entry in golden["entries"].items():
        total = entry["metrics"]["mainmem_total"]
        assert total["total_accesses"] > 0, label
        assert total["rank_switches"] > 0, label


def test_command_fidelity_exercises_new_mechanisms():
    """The command pin must actually pin refresh + rank throttling — a
    golden of a run where the mechanisms never fired would pin nothing."""
    golden_path = GOLDEN_DIR / "command_quick.json"
    if not golden_path.exists():
        pytest.skip("command golden not generated yet")
    golden = json.loads(golden_path.read_text())
    for label, entry in golden["entries"].items():
        total = entry["metrics"]["substrate_total"]
        assert total["refreshes_issued"] > 0, label
        assert total["rrd_stalls"] + total["faw_stalls"] > 0, label


def test_quick_grid_repeatable_in_process():
    """Repeating a point in one process is byte-identical: no state
    leaks from one simulation into the next."""
    specs = [RunSpec("DCA", "sa", mix_id=1)]
    first = compute_entries(specs)
    second = compute_entries(specs)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
