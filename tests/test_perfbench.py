"""Perf harness: scenario equivalence, result structure, BENCH emission."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.decision_loop import (
    SCENARIOS,
    bench_scenario,
    verify_equivalence,
)
from repro.bench.harness import BENCH_SCHEMA_VERSION, run_perf

REPO_ROOT = Path(__file__).parent.parent


class TestEquivalence:
    @pytest.mark.parametrize("mode", [m for m, _n, _q in SCENARIOS])
    def test_engines_agree(self, mode):
        verify_equivalence(mode, queue_size=32, decisions=150, seed=7)


class TestScenario:
    def test_result_structure(self):
        r = bench_scenario("bliss_all", "t", queue_size=24, n_decisions=150)
        d = r.to_dict()
        assert d["decisions"] == 150
        assert d["naive_per_s"] > 0 and d["indexed_per_s"] > 0
        assert d["speedup"] > 0


class TestHarness:
    def test_bench_json_schema(self, tmp_path):
        # Tiny decision counts keep this a structural test, not a perf one.
        import repro.bench.decision_loop as dl
        import repro.bench.harness as hz
        orig = dl.run_decision_loop

        def tiny(quick=False, seed=0):
            return orig(quick=True, seed=seed)

        hz.run_decision_loop = tiny
        try:
            path = run_perf(quick=True, label="test", out_dir=tmp_path,
                            end_to_end=False)
        finally:
            hz.run_decision_loop = orig
        data = json.loads(path.read_text())
        assert path.name == "BENCH_test.json"
        assert data["schema_version"] == BENCH_SCHEMA_VERSION
        dl_data = data["decision_loop"]
        assert dl_data["equivalence_checked"] is True
        assert len(dl_data["scenarios"]) == len(SCENARIOS)
        assert dl_data["geomean_speedup"] > 0


class TestSubstrateLoop:
    def test_substrate_section_structure(self):
        from repro.bench.substrate_loop import run_substrate_loop
        data = run_substrate_loop(quick=True)
        assert {s["name"] for s in data["scenarios"]} == {
            "issue_loop_steady", "issue_loop_bursty"}
        for s in data["scenarios"]:
            assert s["burst_per_s"] > 0 and s["command_per_s"] > 0
            assert s["command_overhead_x"] > 0
            # The bursty stream must actually exercise refresh catch-up,
            # else the overhead number would not measure fidelity work.
            if s["name"] == "issue_loop_bursty":
                assert s["command_counters"]["refreshes_issued"] > 0
        assert data["max_command_overhead_x"] > 0

    def test_section_selection(self, tmp_path):
        path = run_perf(quick=True, label="subonly", out_dir=tmp_path,
                        sections=("substrate",))
        data = json.loads(path.read_text())
        assert data["sections"] == ["substrate"]
        assert "substrate" in data
        assert "decision_loop" not in data and "end_to_end" not in data

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sections"):
            run_perf(quick=True, label="x", out_dir=tmp_path,
                     sections=("cycle_accurate",))

    def test_sections_field_reflects_suppressed_e2e(self, tmp_path):
        path = run_perf(quick=True, label="noe2e", out_dir=tmp_path,
                        end_to_end=False, sections=("substrate", "e2e"))
        data = json.loads(path.read_text())
        assert data["sections"] == ["substrate"]
        assert "end_to_end" not in data


def _load_check_floor():
    path = REPO_ROOT / "benchmarks" / "perf" / "check_floor.py"
    spec = importlib.util.spec_from_file_location("check_floor", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCheckFloor:
    """The CI regression gate: floors, ceilings, missing metrics."""

    FLOOR = {
        "metrics": {"a.speedup": 2.0},
        "ceilings": {"b.overhead_x": 1.5},
    }

    def _check(self, bench, tolerance=0.15):
        return _load_check_floor().check(bench, self.FLOOR, tolerance)

    def test_all_within_reference_passes(self):
        assert self._check(
            {"a": {"speedup": 2.1}, "b": {"overhead_x": 1.4}}) == []

    def test_tolerance_band_is_two_sided(self):
        # Floors allow a drop inside tolerance; ceilings a rise.
        assert self._check(
            {"a": {"speedup": 1.75}, "b": {"overhead_x": 1.7}}) == []

    def test_floor_violation_fails(self):
        fails = self._check({"a": {"speedup": 1.5}, "b": {"overhead_x": 1.0}})
        assert len(fails) == 1 and "a.speedup" in fails[0]

    def test_ceiling_violation_fails(self):
        fails = self._check({"a": {"speedup": 2.5}, "b": {"overhead_x": 2.0}})
        assert len(fails) == 1 and "b.overhead_x" in fails[0]

    def test_missing_metric_fails_both_kinds(self):
        fails = self._check({})
        assert len(fails) == 2
        assert all("missing" in f for f in fails)

    def test_committed_floor_file_is_well_formed(self):
        floor = json.loads(
            (REPO_ROOT / "benchmarks" / "perf" / "floor.json").read_text())
        assert set(floor) >= {"schema_version", "tolerance", "metrics"}
        for ref in floor["metrics"].values():
            assert ref > 0
        for ref in floor.get("ceilings", {}).values():
            assert ref > 0
        # The gate guards every harness section that pins a ratio.
        guarded = {m.split(".")[0]
                   for m in (*floor["metrics"], *floor.get("ceilings", {}))}
        assert {"decision_loop", "topology"} <= guarded
