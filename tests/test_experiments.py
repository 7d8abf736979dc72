"""Experiment harness: specs, result store, speedup tables, CLI plumbing."""

import json

import pytest

from repro.experiments import common
from repro.experiments.common import (
    GridExecutionError,
    ResultStore,
    RunSpec,
    SimParams,
    alone_ipc_table,
    alone_specs,
    format_table,
    grid_specs,
    mix_weighted_speedup,
    run_grid,
    run_one,
)
from repro.experiments import table1_workloads, table2_params
from repro.experiments.runner import EXPERIMENTS, build_parser
from repro.sim.system import RESULT_SCHEMA_VERSION, ResultSchemaError, SystemResult

QUICK = SimParams(warmup_insts=2_000, measure_insts=5_000,
                  replay_accesses=1_000)


class TestRunSpec:
    def test_benchmarks_from_mix(self):
        assert len(RunSpec("CD", mix_id=3).benchmarks()) == 4

    def test_benchmarks_alone(self):
        profs = RunSpec("CD", alone_benchmark="mcf").benchmarks()
        assert [p.name for p in profs] == ["mcf"]

    def test_needs_target(self):
        with pytest.raises(ValueError):
            RunSpec("CD").benchmarks()

    def test_label(self):
        assert RunSpec("DCA", xor_remap=True).label() == "XOR+DCA"
        assert RunSpec("CD", lee_writeback=True).label() == "LEE+CD"
        assert (RunSpec("DCA", workload="adversarial_conflict").label()
                == "DCA:adversarial_conflict")
        assert (RunSpec("DCA", config=(("queues.read_entries", 16),)).label()
                == "DCA[queues.read_entries=16]")

    def test_grid_specs_cross_product(self):
        specs = grid_specs([1, 2], ("sa", "dm"), remaps=(False, True))
        assert len(specs) == 2 * 2 * 2 * 3
        assert len(set(specs)) == len(specs)   # hashable + unique

    def test_alone_specs_cover_all_benchmarks(self):
        specs = alone_specs("sa")
        assert len(specs) == 11
        assert all(s.design == "CD" for s in specs)


class TestRunOne:
    def test_produces_result(self):
        res = run_one(RunSpec("DCA", mix_id=1), QUICK)
        assert isinstance(res, SystemResult)
        assert len(res.ipcs) == 4
        assert res.design == "DCA"

    def test_deterministic(self):
        r1 = run_one(RunSpec("CD", mix_id=2), QUICK)
        r2 = run_one(RunSpec("CD", mix_id=2), QUICK)
        assert r1.ipcs == r2.ipcs


class TestCaching:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec("CD", alone_benchmark="gcc")
        first = run_grid([spec], QUICK, jobs=1)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        second = run_grid([spec], QUICK, jobs=1)
        assert second[spec].ipcs == first[spec].ipcs

    def test_corrupt_cache_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec("CD", alone_benchmark="gcc")
        key = ResultStore().key(spec, QUICK)
        (tmp_path / f"{key}.json").write_text("{not json")
        out = run_grid([spec], QUICK, jobs=1)
        assert out[spec].ipcs[0] > 0

    def test_key_distinguishes_specs(self):
        store = ResultStore()
        k1 = store.key(RunSpec("CD", mix_id=1), QUICK)
        k2 = store.key(RunSpec("DCA", mix_id=1), QUICK)
        k3 = store.key(RunSpec("CD", mix_id=1), SimParams())
        assert len({k1, k2, k3}) == 3

    def test_key_tracks_trace_file_content(self, tmp_path):
        """Editing a trace:<path> file must change the cache key — the
        path alone would silently serve results of the old contents."""
        path = tmp_path / "w.trace"
        path.write_text("1 0 r\n")
        spec = RunSpec("CD", workload=f"trace:{path}")
        store = ResultStore(tmp_path)
        k1 = store.key(spec, QUICK)
        assert store.key(spec, QUICK) == k1   # stable while unchanged
        path.write_text("1 64 w\n")
        assert store.key(spec, QUICK) != k1
        # non-trace specs are unaffected by the token machinery
        assert common._workload_content_token(None) is None
        assert common._workload_content_token("adversarial_conflict") is None

    def test_explicit_cache_dir_parameter(self, tmp_path):
        spec = RunSpec("CD", alone_benchmark="gcc")
        run_grid([spec], QUICK, jobs=1, cache_dir=tmp_path / "c")
        assert list((tmp_path / "c").glob("*.json"))

    def test_use_cache_false_reads_and_writes_nothing(self, tmp_path):
        spec = RunSpec("CD", alone_benchmark="gcc")
        out = run_grid([spec], QUICK, jobs=1, use_cache=False,
                       cache_dir=tmp_path / "c")
        assert out[spec].ipcs[0] > 0
        assert not (tmp_path / "c").exists()


class TestResultStore:
    SPEC = RunSpec("CD", alone_benchmark="gcc")

    def store_with_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_one(self.SPEC, QUICK)
        store.store(self.SPEC, QUICK, result)
        return store, result

    def test_round_trip(self, tmp_path):
        store, result = self.store_with_entry(tmp_path)
        loaded = store.load(self.SPEC, QUICK)
        assert loaded is not None
        assert loaded.ipcs == result.ipcs
        assert loaded.metrics == result.metrics

    def test_key_includes_schema_version(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        k_now = store.key(self.SPEC, QUICK)
        monkeypatch.setattr(common, "RESULT_SCHEMA_VERSION",
                            RESULT_SCHEMA_VERSION + 1)
        assert store.key(self.SPEC, QUICK) != k_now

    def test_pre_refactor_entry_rejected(self, tmp_path):
        """An entry without schema_version (old code) is a miss even if it
        lands on the current key (defence in depth below the key change)."""
        store, result = self.store_with_entry(tmp_path)
        path = store.path(self.SPEC, QUICK)
        old = json.loads(path.read_text())
        del old["schema_version"]
        del old["metrics"]
        path.write_text(json.dumps(old))
        assert store.load(self.SPEC, QUICK) is None

    def test_wrong_schema_version_rejected(self, tmp_path):
        store, _ = self.store_with_entry(tmp_path)
        path = store.path(self.SPEC, QUICK)
        data = json.loads(path.read_text())
        data["schema_version"] = RESULT_SCHEMA_VERSION + 999
        path.write_text(json.dumps(data))
        assert store.load(self.SPEC, QUICK) is None

    def test_unknown_extra_field_rejected(self, tmp_path):
        store, _ = self.store_with_entry(tmp_path)
        path = store.path(self.SPEC, QUICK)
        data = json.loads(path.read_text())
        data["field_from_the_future"] = 1
        path.write_text(json.dumps(data))
        assert store.load(self.SPEC, QUICK) is None

    def test_disabled_store_is_inert(self, tmp_path):
        store = ResultStore(tmp_path / "c", enabled=False)
        store.store(self.SPEC, QUICK, run_one(self.SPEC, QUICK))
        assert not (tmp_path / "c").exists()
        assert store.load(self.SPEC, QUICK) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        """A torn write (e.g. disk full mid-rename fallback) is a miss."""
        store, _ = self.store_with_entry(tmp_path)
        path = store.path(self.SPEC, QUICK)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        assert store.load(self.SPEC, QUICK) is None

    def test_empty_entry_is_a_miss(self, tmp_path):
        store, _ = self.store_with_entry(tmp_path)
        store.path(self.SPEC, QUICK).write_text("")
        assert store.load(self.SPEC, QUICK) is None

    def test_wrong_json_type_is_a_miss(self, tmp_path):
        store, _ = self.store_with_entry(tmp_path)
        store.path(self.SPEC, QUICK).write_text("[1, 2, 3]")
        assert store.load(self.SPEC, QUICK) is None

    def test_partial_field_set_is_a_miss(self, tmp_path):
        """An entry missing fields (partial schema migration) is a miss."""
        store, _ = self.store_with_entry(tmp_path)
        path = store.path(self.SPEC, QUICK)
        data = json.loads(path.read_text())
        del data["ipcs"]
        del data["metrics"]
        path.write_text(json.dumps(data))
        assert store.load(self.SPEC, QUICK) is None

    def test_binary_garbage_is_a_miss(self, tmp_path):
        store, _ = self.store_with_entry(tmp_path)
        store.path(self.SPEC, QUICK).write_bytes(b"\xff\xfe\x00garbage")
        assert store.load(self.SPEC, QUICK) is None

    def test_from_cache_dict_validates(self):
        with pytest.raises(ResultSchemaError):
            SystemResult.from_cache_dict({"schema_version": -1})
        with pytest.raises(ResultSchemaError):
            SystemResult.from_cache_dict([1, 2, 3])


class TestResultRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = run_one(RunSpec("DCA", mix_id=1), QUICK)
        wire = json.loads(json.dumps(result.to_cache_dict()))
        restored = SystemResult.from_cache_dict(wire)
        assert restored == result

    def test_metrics_snapshot_deterministic(self):
        """Two identical RunSpec runs produce bit-identical snapshots."""
        spec = RunSpec("DCA", mix_id=2)
        s1 = json.dumps(run_one(spec, QUICK).metrics, sort_keys=False)
        s2 = json.dumps(run_one(spec, QUICK).metrics, sort_keys=False)
        assert s1 == s2

    def test_metrics_snapshot_covers_layers(self):
        result = run_one(RunSpec("CD", mix_id=1), QUICK)
        assert {"controller", "substrate", "substrate_total", "l2",
                "mainmem"} <= set(result.metrics)
        assert result.metrics["controller"]["reads_done"] == result.reads_done


class TestFailureIsolation:
    GOOD = RunSpec("CD", alone_benchmark="gcc")
    BAD = RunSpec("BOGUS", alone_benchmark="gcc")

    def test_one_crash_does_not_kill_the_grid(self, tmp_path):
        with pytest.raises(GridExecutionError) as exc_info:
            run_grid([self.BAD, self.GOOD], QUICK, jobs=1,
                     cache_dir=tmp_path)
        err = exc_info.value
        assert list(err.failures) == [self.BAD]
        assert "unknown design" in err.failures[self.BAD]
        # The good point completed, was returned, and was cached.
        assert err.results[self.GOOD].ipcs[0] > 0
        assert ResultStore(tmp_path).load(self.GOOD, QUICK) is not None

    def test_parallel_crash_isolated_too(self, tmp_path):
        with pytest.raises(GridExecutionError) as exc_info:
            run_grid([self.GOOD, self.BAD], QUICK, jobs=2,
                     cache_dir=tmp_path)
        assert list(exc_info.value.failures) == [self.BAD]
        assert self.GOOD in exc_info.value.results

    def test_results_keyed_in_input_order(self, tmp_path):
        specs = [RunSpec("CD", alone_benchmark=b)
                 for b in ("mcf", "gcc", "astar")]
        out = run_grid(specs, QUICK, jobs=3, cache_dir=tmp_path)
        assert list(out) == specs


class _Recorder:
    """An experiment that keeps the real plan and records what its
    report is handed, so runner tests need no simulation."""

    def __init__(self, exp):
        self.ID, self.TITLE, self.plan = exp.ID, exp.TITLE, exp.plan
        self.got = None

    def report(self, results, params, mixes):
        self.got = dict(results)
        return f"{self.ID} report", {}, [(f"{self.ID} check", True)]


class TestPlannedGrid:
    """The runner runs one deduplicated grid for every requested id and
    hands each report its own points (``run_grid`` stubbed out)."""

    MIXES = [1, 2, 3]
    #: planned by every dm + remap figure: fig09, fig11, fig13, fig17
    BAD = RunSpec("DCA", "dm", True, mix_id=2)

    def _run(self, tmp_path, monkeypatch, fail=()):
        from repro.experiments import runner
        recorders = {i: _Recorder(e) for i, e in EXPERIMENTS.items()}
        for exp_id, rec in recorders.items():
            monkeypatch.setitem(runner.EXPERIMENTS, exp_id, rec)
        calls = []

        def fake_run_grid(specs, params, jobs=0, progress=False, store=None):
            calls.append(list(specs))
            done = {s: f"result of {s}" for s in specs if s not in fail}
            failures = {s: "Traceback ...\nValueError: boom"
                        for s in specs if s in fail}
            if failures:
                raise GridExecutionError(failures, done)
            return done

        monkeypatch.setattr(common, "run_grid", fake_run_grid)
        rc = runner.main(["all", "--quick", "--mixes", str(len(self.MIXES)),
                          "--no-cache", "--out", str(tmp_path)])
        return rc, calls, recorders

    def test_all_runs_one_deduplicated_grid(self, tmp_path, monkeypatch,
                                            capsys):
        rc, calls, _ = self._run(tmp_path, monkeypatch)
        assert rc == 0
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == 98
        assert ("grid: 286 points requested, 98 unique, 98 executed, "
                "0 served from store, 0 failed") in capsys.readouterr().out

    def test_each_report_gets_exactly_its_plan(self, tmp_path, monkeypatch):
        _rc, _calls, recorders = self._run(tmp_path, monkeypatch)
        for exp_id, rec in recorders.items():
            planned = list(dict.fromkeys(rec.plan(self.MIXES)))
            assert list(rec.got) == planned, exp_id
            assert all(r == f"result of {s}" for s, r in rec.got.items())
        assert recorders["table1"].got == recorders["fig18"].got == {}

    def test_failed_point_fails_only_its_planners(self, tmp_path,
                                                  monkeypatch, capsys):
        rc, _calls, recorders = self._run(tmp_path, monkeypatch,
                                          fail=(self.BAD,))
        assert rc == 1
        planners = {i for i, rec in recorders.items()
                    if self.BAD in rec.plan(self.MIXES)}
        assert planners == {"fig09", "fig11", "fig13", "fig17"}
        err = capsys.readouterr().err
        for exp_id, rec in recorders.items():
            if exp_id in planners:
                assert rec.got is None, exp_id
                assert not (tmp_path / f"{exp_id}.txt").exists()
                assert not (tmp_path / f"{exp_id}.json").exists()
                assert f"ERROR: {exp_id}: 1 of " in err
            else:
                assert (tmp_path / f"{exp_id}.txt").read_text() == (
                    f"{exp_id} report\n[PASS] {exp_id} check\n")
        assert "XOR+DCA (mix=2, alone=None): ValueError: boom" in err


class TestSpeedupPlumbing:
    def test_alone_table_and_ws(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [RunSpec("CD", alone_benchmark=b, seed=9)
                 for b in ("gcc", "astar")]
        results = run_grid(specs, QUICK, jobs=1)
        table = alone_ipc_table(results)
        assert set(table) == {"gcc", "astar"}
        fake = SystemResult(
            design="CD", organization="sa", xor_remap=False,
            benchmarks=["gcc", "astar"], ipcs=[table["gcc"], table["astar"]],
            elapsed_ps=1, mean_read_latency_ps=1, dram_read_hit_rate=0,
            reads_done=1, writebacks=0, refills=0,
            read_priority_inversions=0, lr_ofs_issues=0, lr_drain_issues=0,
            accesses_per_turnaround=1, read_row_hit_rate=0, turnarounds=0,
            dram_accesses=0, l2_hit_rate=0, mainmem_reads=0, mainmem_writes=0)
        # each core exactly at its alone IPC -> WS == number of cores
        assert mix_weighted_speedup(fake, table) == pytest.approx(2.0)


class TestFormatTable:
    def test_alignment_and_rows(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_no_title(self):
        out = format_table(["x"], [[1]])
        assert out.splitlines()[0].startswith("x")


class TestStaticExperiments:
    def test_table1_all_checks_pass(self):
        assert table1_workloads.plan([1]) == []
        _r, _d, checks = table1_workloads.report({}, QUICK, [1])
        assert all(ok for _desc, ok in checks)

    def test_table2_all_checks_pass(self):
        assert table2_params.plan([1]) == []
        report, _d, checks = table2_params.report({}, QUICK, [1])
        assert all(ok for _desc, ok in checks)
        assert "tRCD" in report


class TestSeedDerivation:
    def test_alone_runs_get_distinct_seeds(self):
        """Alone benchmarks used to all collapse to seed 1, sharing one
        RNG stream; each must get its own deterministic stream."""
        from repro.experiments.common import default_seed
        from repro.workloads.profiles import PROFILES
        seeds = {b: default_seed(RunSpec("CD", alone_benchmark=b))
                 for b in PROFILES}
        assert len(set(seeds.values())) == len(PROFILES)
        # stable across calls/processes (CRC, not salted hash)
        assert seeds == {b: default_seed(RunSpec("CD", alone_benchmark=b))
                         for b in PROFILES}

    def test_explicit_seed_and_mix_seed_still_win(self):
        from repro.experiments.common import default_seed
        assert default_seed(RunSpec("CD", mix_id=7)) == 7
        assert default_seed(RunSpec("CD", mix_id=7, seed=42)) == 42
        assert default_seed(
            RunSpec("CD", alone_benchmark="mcf", seed=9)) == 9

    def test_workload_specs_get_distinct_seeds(self):
        from repro.experiments.common import default_seed
        a = default_seed(RunSpec("DCA", workload="adversarial_conflict"))
        b = default_seed(RunSpec("DCA", workload="adversarial_writeback"))
        assert a != b

    def test_seed_follows_benchmarks_precedence(self):
        """The seed derives from the field that supplies the benchmarks
        (alone_benchmark > workload > mix_id, like benchmarks())."""
        from repro.experiments.common import default_seed
        combined = RunSpec("DCA", workload="adversarial_conflict", mix_id=1)
        assert default_seed(combined) == default_seed(
            RunSpec("DCA", workload="adversarial_conflict"))
        assert default_seed(combined) != 1


class TestRunnerCLI:
    def test_all_ids_registered(self):
        expected = {"table1", "table2"} | {f"fig{n:02d}" for n in range(8, 20)}
        assert set(EXPERIMENTS) == expected

    def test_measure_zero_rejected(self, capsys):
        """`if args.measure:` silently ignored --measure 0; it now errors."""
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as exc_info:
            main(["table1", "--measure", "0"])
        assert exc_info.value.code == 2
        assert "--measure" in capsys.readouterr().err

    def test_figure_cli_has_no_warm_cache_flag(self, capsys):
        """Warm sharing is a sweep option; the figure CLI rejects it."""
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as exc_info:
            main(["fig08", "--warm-cache"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --warm-cache" in capsys.readouterr().err

    def test_measure_negative_rejected(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--measure", "-5"])

    def test_mixes_out_of_range_rejected(self, capsys):
        """--mixes 0 used to yield an empty grid that 'passed', and
        --mixes 40 was clamped to 30 without a word; both now error."""
        from repro.experiments.runner import main
        for bad in ("0", "31", "-3"):
            with pytest.raises(SystemExit) as exc_info:
                main(["table1", "--mixes", bad])
            assert exc_info.value.code == 2
        assert "--mixes" in capsys.readouterr().err

    def test_measure_applied(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        captured = {}

        def fake_run_experiments(ids, params, mixes, jobs, out_dir,
                                 use_cache=True):
            captured["params"] = params
            captured["mixes"] = mixes
            return True

        monkeypatch.setattr(runner, "run_experiments", fake_run_experiments)
        rc = runner.main(["table1", "--measure", "12345", "--mixes", "2",
                          "--out", str(tmp_path)])
        assert rc == 0
        assert captured["params"].measure_insts == 12345
        assert captured["mixes"] == [1, 2]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig08"])
        assert args.mixes == 30
        assert not args.quick

    def test_parser_multi_ids(self):
        args = build_parser().parse_args(["fig08", "fig09", "--quick"])
        assert args.ids == ["fig08", "fig09"]
        assert args.quick

    def test_results_json_shape(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        from repro.experiments.runner import run_experiments
        ok = run_experiments(["table1"], QUICK, [1], jobs=1,
                             out_dir=tmp_path)
        assert ok
        data = json.loads((tmp_path / "table1.json").read_text())
        assert data["id"] == "table1"
        assert all(data["checks"].values())
