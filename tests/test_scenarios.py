"""Scenario sweep engine: specs, sharding, cache-backed resumable execution."""

import json

import pytest

from repro.experiments import common
from repro.experiments.common import SimParams
from repro.scenarios import SweepSpec, parse_axis_value, run_sweep
from repro.scenarios.cli import main as sweep_cli_main
from repro.scenarios.cli import parse_axis, parse_shard
from repro.scenarios.spec import TARGET_AXES as TARGET_AXES_SET
from repro.experiments.runner import main as runner_main

TINY = SimParams(warmup_insts=1_000, measure_insts=3_000,
                 replay_accesses=500)


def cache_entries(cache_dir):
    return list(cache_dir.glob("*.json"))


def tiny_sweep(**kw):
    kw.setdefault("name", "t")
    kw.setdefault("axes", {"scheduler": ["bliss", "frfcfs"]})
    kw.setdefault("base", {"mix_id": 1})
    return SweepSpec(**kw)


class TestSweepSpec:
    def test_cross_product_order_deterministic(self):
        sw = SweepSpec("s", axes={"design": ["CD", "DCA"],
                                  "queues.read_entries": [16, 64]},
                       base={"mix_id": 1})
        pts = sw.compile()
        assert len(pts) == 4
        assert pts == sw.compile()
        assert [p.axis_dict()["design"] for p in pts] == \
            ["CD", "CD", "DCA", "DCA"]

    def test_config_axes_land_in_runspec_config(self):
        sw = SweepSpec("s", axes={"queues.read_entries": [16]},
                       base={"mix_id": 2, "design": "ROD"})
        spec = sw.compile()[0].spec
        assert spec.config == (("queues.read_entries", 16),)
        assert spec.design == "ROD"
        assert spec.mix_id == 2

    def test_default_design_is_dca(self):
        assert tiny_sweep().compile()[0].spec.design == "DCA"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec("s", axes={"bogus_knob": [1]}, base={"mix_id": 1})

    def test_unknown_config_path_rejected(self):
        with pytest.raises(ValueError, match="no.*field"):
            SweepSpec("s", axes={"queues.bogus": [1]}, base={"mix_id": 1})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec("s", axes={"scheduler": []}, base={"mix_id": 1})

    def test_scalar_axis_value_rejected(self):
        """A hand-written spec file with {'mix_id': 5} or {'design':
        'DCA'} gets a usage error, not a TypeError or a per-character
        explosion of the string."""
        with pytest.raises(ValueError, match="must be a list"):
            SweepSpec("s", axes={"mix_id": 5})
        with pytest.raises(ValueError, match="must be a list"):
            SweepSpec("s", axes={"design": "DCA"}, base={"mix_id": 1})

    def test_needs_workload_axis(self):
        with pytest.raises(ValueError, match="workload axis"):
            SweepSpec("s", axes={"scheduler": ["bliss"]})

    def test_conflicting_workload_axes_rejected(self):
        """mix_id next to workload would silently demote mix_id to a
        seed (RunSpec.benchmarks precedence) and mislabel every point."""
        with pytest.raises(ValueError, match="conflicting workload axes"):
            SweepSpec("s", axes={"workload": ["adversarial_conflict"],
                                 "mix_id": [1, 2, 3]})
        with pytest.raises(ValueError, match="conflicting workload axes"):
            SweepSpec("s", axes={"alone_benchmark": ["mcf"]},
                      base={"mix_id": 1})

    def test_config_axis_value_type_checked_at_build(self):
        """A string value for an int field fails at spec construction,
        not as an opaque per-point worker crash."""
        with pytest.raises(ValueError, match="queues.read_entries"):
            SweepSpec("s", axes={"queues.read_entries": [16, "lots"]},
                      base={"mix_id": 1})

    def test_runspec_axis_values_canonicalised(self):
        """0/1 bools, case-variant designs/schedulers and int-for-float
        config values must compile to the same RunSpecs (and hence cache
        keys) as the figure grids — no type-spelling cache forks."""
        sw = SweepSpec("s", axes={"xor_remap": [0, "true"],
                                  "design": ["dca", "CD"],
                                  "queues.write_high_watermark": [1]},
                       base={"mix_id": 1, "scheduler": "BLISS"})
        assert sw.axes["xor_remap"] == [False, True]
        assert sw.axes["design"] == ["DCA", "CD"]
        assert sw.axes["queues.write_high_watermark"] == [1.0]
        # JSON emitters often spell ints as floats; 1.0 must not fork keys
        sw2 = SweepSpec("s2", axes={"mix_id": [1.0, 2.0]})
        assert sw2.axes["mix_id"] == [1, 2]
        assert isinstance(sw2.compile()[0].spec.mix_id, int)
        spec = sw.compile()[0].spec
        assert spec.xor_remap is False and spec.design == "DCA"
        assert spec.scheduler == "bliss"
        assert spec.config == (("queues.write_high_watermark", 1.0),)

    @pytest.mark.parametrize("axes", [
        {"design": ["BOGUS"]},
        {"scheduler": ["fifo"]},
        {"organization": ["fa"]},
        {"workload": ["adversarial_conflit"]},       # typo
        {"workload": ["trace:/does/not/exist.t"]},
        {"alone_benchmark": ["perlbench"]},
        {"mix_id": [31]},
        {"xor_remap": [2]},
        {"seed": [0, 1]},       # 0 aliases the derived default seed
    ])
    def test_runspec_axis_values_validated_at_build(self, axes):
        """A typo'd axis value is a build-time usage error, not N opaque
        per-point worker failures after the grid started."""
        base = {} if set(axes) & set(TARGET_AXES_SET) else {"mix_id": 1}
        with pytest.raises(ValueError):
            SweepSpec("s", axes=axes, base=base)

    def test_name_path_tricks_rejected(self):
        """The name becomes a directory: traversal/hidden spellings fail."""
        for bad in ("", "..", ".", "a/b", "..\\x", ".hidden", "-flag"):
            with pytest.raises(ValueError, match="identifier"):
                tiny_sweep(name=bad)
        tiny_sweep(name="ok-1.2_x")   # benign punctuation still allowed

    def test_malformed_trace_fails_at_build(self, tmp_path):
        """A parseable-at-all check happens at spec build, not as N
        identical worker crashes mid-grid."""
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace line\n")
        with pytest.raises(ValueError, match="workload"):
            SweepSpec("s", axes={"workload": [f"trace:{bad}"]})

    def test_axis_values_deduped_after_canonicalisation(self):
        sw = SweepSpec("s", axes={"design": ["dca", "DCA", "CD"]},
                       base={"mix_id": 1})
        assert sw.axes["design"] == ["DCA", "CD"]
        assert len(sw.compile()) == 2

    def test_top_level_config_scalars_sweepable(self):
        """l2_mshrs is a SystemConfig knob without a dot; it compiles
        into a config override like dotted paths do."""
        sw = SweepSpec("s", axes={"l2_mshrs": [8, 32]}, base={"mix_id": 1})
        spec = sw.compile()[0].spec
        assert spec.config == (("l2_mshrs", 8),)
        # System derives num_cores from the benchmark count, so an axis
        # over it would be a silent no-op posing as a scaling study
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec("s", axes={"num_cores": [2, 4]}, base={"mix_id": 1})

    def test_config_axis_through_scalar_rejected(self):
        """A path descending into a scalar (num_cores.real passes a
        naive hasattr check) is a build-time usage error."""
        with pytest.raises(ValueError, match="scalar"):
            SweepSpec("s", axes={"num_cores.real": [1]}, base={"mix_id": 1})

    def test_config_group_name_without_dot_rejected(self):
        """'queues' alone is neither a RunSpec field nor a dotted path."""
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec("s", axes={"queues": [1]}, base={"mix_id": 1})

    def test_axis_base_overlap_rejected(self):
        with pytest.raises(ValueError, match="pinned in base"):
            SweepSpec("s", axes={"mix_id": [1, 2]}, base={"mix_id": 1})

    def test_sweep_id_changes_with_grid_and_params(self):
        a = tiny_sweep().sweep_id(TINY)
        b = tiny_sweep(axes={"scheduler": ["bliss"]}).sweep_id(TINY)
        c = tiny_sweep().sweep_id(SimParams())
        assert len({a, b, c}) == 3
        assert tiny_sweep().sweep_id(TINY) == a

    def test_shards_partition_grid(self):
        sw = SweepSpec("s", axes={"mix_id": [1, 2, 3], "design": ["CD", "DCA"]})
        full = sw.compile()
        shards = [sw.shard_points((i, 4)) for i in range(4)]
        flattened = [p for shard in shards for p in shard]
        assert sorted(p.spec.label() + str(p.axes) for p in flattened) == \
            sorted(p.spec.label() + str(p.axes) for p in full)
        assert all(len(s) >= 1 for s in shards)

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError):
            tiny_sweep().shard_points((2, 2))

    def test_dict_round_trip(self):
        sw = tiny_sweep()
        assert SweepSpec.from_dict(sw.to_dict()).to_dict() == sw.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sweep-spec keys"):
            SweepSpec.from_dict({"axes": {"mix_id": [1]}, "shards": 4})


class TestAxisParsing:
    @pytest.mark.parametrize("text,expected", [
        ("16", 16), ("0.85", 0.85), ("true", True), ("false", False),
        ("none", None), ("bliss", "bliss"), ("trace:/x/y.t", "trace:/x/y.t"),
    ])
    def test_value_coercion(self, text, expected):
        assert parse_axis_value(text) == expected

    def test_parse_axis(self):
        name, values = parse_axis("queues.read_entries=16, 64")
        assert name == "queues.read_entries"
        assert values == [16, 64]

    def test_parse_axis_malformed(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_axis("nodelimiter")

    def test_parse_shard(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)

    def test_parse_shard_out_of_range(self):
        import argparse
        for bad in ("0/4", "5/4", "x/y", "3"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_shard(bad)


class TestRunSweep:
    def test_end_to_end_then_fully_cached(self, tmp_path):
        sw = tiny_sweep()
        first = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                          cache_dir=tmp_path / "c")
        assert first.executed == 2 and first.cached == 0
        assert not first.failures
        again = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                          cache_dir=tmp_path / "c")
        assert again.executed == 0 and again.cached == 2

    def test_results_artifact_uses_result_schema(self, tmp_path):
        from repro.sim.system import RESULT_SCHEMA_VERSION, SystemResult
        outcome = run_sweep(tiny_sweep(), TINY, jobs=1,
                            out_dir=tmp_path / "o", cache_dir=tmp_path / "c")
        data = json.loads(outcome.results_path.read_text())
        assert data["kind"] == "sweep"
        assert data["result_schema_version"] == RESULT_SCHEMA_VERSION
        assert data["complete"] is True
        assert len(data["points"]) == 2
        for point in data["points"]:
            # every per-point payload is a loadable SystemResult cache dict
            restored = SystemResult.from_cache_dict(point["result"])
            assert restored.ipcs and "controller" in restored.metrics
            assert point["axes"]["scheduler"] in ("bliss", "frfcfs")

    def test_resume_after_interruption(self, tmp_path, monkeypatch):
        """The acceptance criterion: kill a sweep mid-grid, re-run, and the
        previously finished points are served from the cache while the
        remainder executes to completion."""
        sw = SweepSpec("resume", axes={"scheduler": ["bliss", "frfcfs"],
                                       "queues.read_entries": [16, 64]},
                       base={"mix_id": 1})
        real_run_one = common.run_one
        executed: list = []

        def interrupting(spec, params, warm_cache=None):
            if len(executed) >= 2:
                raise KeyboardInterrupt   # simulated ^C mid-sweep
            result = real_run_one(spec, params, warm_cache)
            executed.append(spec)
            return result

        monkeypatch.setattr(common, "run_one", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                      cache_dir=tmp_path / "c")
        # the result cache is the checkpoint: one entry per finished point
        assert len(cache_entries(tmp_path / "c")) == 2

        def counting(spec, params, warm_cache=None):
            executed.append(spec)
            return real_run_one(spec, params, warm_cache)

        executed.clear()
        monkeypatch.setattr(common, "run_one", counting)
        outcome = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                            cache_dir=tmp_path / "c")
        assert len(executed) == 2          # only the unfinished half ran
        assert outcome.executed == 2 and outcome.cached == 2
        assert not outcome.failures
        assert len(cache_entries(tmp_path / "c")) == 4
        assert json.loads(
            outcome.results_path.read_text())["complete"] is True

    def test_point_failure_isolated_and_checkpointed(self, tmp_path,
                                                     monkeypatch):
        sw = SweepSpec("f", axes={"scheduler": ["bliss", "frfcfs"]},
                       base={"mix_id": 1})
        real_run_one = common.run_one

        def failing(spec, params, warm_cache=None):
            if spec.scheduler == "frfcfs":
                raise RuntimeError("injected point failure")
            return real_run_one(spec, params, warm_cache)

        monkeypatch.setattr(common, "run_one", failing)
        outcome = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                            cache_dir=tmp_path / "c")
        assert len(outcome.failures) == 1
        assert "injected point failure" in outcome.failures[0].error
        good = [p for p in outcome.points if p.error is None]
        assert len(good) == 1 and good[0].result is not None
        data = json.loads(outcome.results_path.read_text())
        assert data["complete"] is False

    def test_sharded_execution_covers_grid(self, tmp_path):
        sw = tiny_sweep(name="sh")
        a = run_sweep(sw, TINY, shard=(0, 2), jobs=1,
                      out_dir=tmp_path / "o", cache_dir=tmp_path / "c")
        b = run_sweep(sw, TINY, shard=(1, 2), jobs=1,
                      out_dir=tmp_path / "o", cache_dir=tmp_path / "c")
        assert a.executed == 1 and b.executed == 1
        assert a.results_path != b.results_path
        # after both shards, a whole-grid run is fully cache-served
        whole = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                          cache_dir=tmp_path / "c")
        assert whole.executed == 0 and whole.cached == 2

    def test_no_cache_records_no_checkpoints(self, tmp_path):
        """--no-cache progress is not resumable: no cache entry records
        it, so a later cached run executes everything."""
        sw = tiny_sweep(name="nc")
        first = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                          cache_dir=tmp_path / "c", use_cache=False)
        assert first.executed == 2
        assert not cache_entries(tmp_path / "c")
        # ... but the artifact of a fully successful run is complete:
        # this run's outcomes are the whole truth without a cache
        data = json.loads(first.results_path.read_text())
        assert data["complete"] is True
        second = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                           cache_dir=tmp_path / "c")
        assert second.executed == 2 and second.cached == 0

    def test_changed_grid_reruns_only_missing_and_new_points(self, tmp_path):
        """Re-running a sweep name with a different axis list, over a cache
        missing one old entry, executes exactly the missing and new points;
        results.json describes the new grid alone."""
        def grid(depths):
            return SweepSpec("g", axes={"queues.read_entries": depths},
                             base={"mix_id": 1})

        kw = dict(jobs=1, out_dir=tmp_path / "o", cache_dir=tmp_path / "c")
        first = run_sweep(grid([16, 32, 48]), TINY, **kw)
        assert first.executed == 3
        (tmp_path / "c" / f"{first.points[1].key}.json").unlink()   # depth 32

        second = run_sweep(grid([32, 48, 64]), TINY, **kw)
        assert second.sweep_id != first.sweep_id
        ran = {p.point.axis_dict()["queues.read_entries"]
               for p in second.points if p.executed}
        assert ran == {32, 64} and second.cached == 1
        data = json.loads(second.results_path.read_text())
        assert data["complete"] is True
        assert data["sweep_id"] == second.sweep_id
        assert [p["axes"]["queues.read_entries"] for p in data["points"]] \
            == [32, 48, 64]
        assert all("result" in p for p in data["points"])

    def test_queue_depth_axis_changes_controller(self, tmp_path):
        """A queues.read_entries axis produces distinct cached results."""
        sw = SweepSpec("q", axes={"queues.read_entries": [4, 64]},
                       base={"mix_id": 1, "design": "DCA"})
        outcome = run_sweep(sw, TINY, jobs=1, out_dir=tmp_path / "o",
                            cache_dir=tmp_path / "c")
        r4, r64 = [p.result for p in outcome.points]
        assert r4.metrics != r64.metrics   # the knob reached the machine


class TestSweepCLI:
    def test_dry_run(self, capsys):
        rc = sweep_cli_main(["--dry-run", "--axis", "scheduler=bliss,frfcfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 points" in out and "scheduler=frfcfs" in out

    def test_runner_dispatches_sweep(self, capsys):
        rc = runner_main(["sweep", "--dry-run", "--axis", "design=CD,DCA"])
        assert rc == 0
        assert "2 points" in capsys.readouterr().out

    def test_mixes_shorthand_and_validation(self, capsys):
        rc = sweep_cli_main(["--dry-run", "--axis", "design=CD", "--mixes", "3"])
        assert rc == 0
        assert "3 points" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            sweep_cli_main(["--dry-run", "--axis", "design=CD",
                            "--mixes", "0"])

    def test_measure_validation(self):
        with pytest.raises(SystemExit):
            sweep_cli_main(["--dry-run", "--axis", "design=CD",
                            "--measure", "0"])

    def test_unknown_axis_is_usage_error(self):
        with pytest.raises(SystemExit):
            sweep_cli_main(["--dry-run", "--axis", "bogus=1"])

    def test_deleted_config_axis_rejected_before_any_worker(
            self, monkeypatch, capsys):
        def no_workers(*_args, **_kwargs):
            raise AssertionError("the sweep started executing")
        monkeypatch.setattr("repro.scenarios.cli.run_sweep", no_workers)
        for axis, field in (("prefetch.kind=nextline", "prefetch"),
                            ("substrate.page_policy=closed", "page_policy"),
                            ("substrate.page_timeout_ps=200000",
                             "page_timeout_ps"),
                            ("substrate.refresh=false", "refresh")):
            with pytest.raises(SystemExit):
                sweep_cli_main(["--quick", "--axis", axis])
            assert (f"unknown config field {field!r}"
                    in capsys.readouterr().err), axis

    def test_duplicate_axis_flag_rejected(self):
        with pytest.raises(SystemExit):
            sweep_cli_main(["--dry-run", "--axis", "scheduler=bliss",
                            "--axis", "scheduler=frfcfs"])

    def test_mixes_conflicts_with_mix_id_axis(self):
        with pytest.raises(SystemExit):
            sweep_cli_main(["--dry-run", "--axis", "mix_id=1,2",
                            "--mixes", "3"])

    def test_spec_file(self, tmp_path, capsys):
        spec = {"name": "fromfile",
                "axes": {"design": ["CD", "ROD", "DCA"]},
                "base": {"mix_id": 1}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        rc = sweep_cli_main(["--dry-run", "--spec", str(path)])
        assert rc == 0
        assert "fromfile: 3 points" in capsys.readouterr().out

    def test_cli_end_to_end_and_resume(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        args = ["--quick", "--measure", "2000", "--jobs", "1",
                "--axis", "scheduler=bliss,frfcfs",
                "--name", "cli", "--out", str(tmp_path / "o")]
        assert sweep_cli_main(args) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        assert sweep_cli_main(args) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out
