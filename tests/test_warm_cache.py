"""Warm-state cache: key masking, bit-identical forking, grid integration.

The warm cache's contract has two halves:

* **masking** — :func:`warm_group_key` hashes only the warm-up-relevant
  run prefix, so specs differing in controller design, scheduler, MAP-I
  or XOR remapping share one key (one warm-up per group) while anything
  that shapes the functional warm state (workload, seed, footprint,
  geometry, organization, Lee mode, replay budget) splits it;
* **bit identity** — a run forked from a warm state equals a cold run
  exactly (everything but ``meta``, which records provenance).
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.experiments.common import (
    GridExecutionError,
    ResultStore,
    RunSpec,
    SimParams,
    build_system,
    run_grid,
    run_one,
    warm_group_key,
)
from repro.snapshot import WarmCache, WarmState, WarmStateError, warm_identity

#: tiny budgets + tiny footprints keep every run in the ~100 ms range
PARAMS = SimParams(footprint_scale=1 / 400, warmup_insts=2_000,
                   measure_insts=5_000, replay_accesses=1_000)


def strip_meta(result) -> dict:
    d = result.to_cache_dict()
    d.pop("meta")
    return d


class TestWarmGroupKey:
    BASE = RunSpec("CD", "sa", mix_id=1)

    def equal(self, other: RunSpec) -> bool:
        return (warm_group_key(self.BASE, PARAMS)
                == warm_group_key(other, PARAMS))

    def test_masks_controller_design(self):
        assert self.equal(RunSpec("DCA", "sa", mix_id=1))
        assert self.equal(RunSpec("ROD", "sa", mix_id=1))

    def test_masks_scheduler_mapi_and_remap(self):
        assert self.equal(RunSpec("CD", "sa", mix_id=1, scheduler="frfcfs"))
        assert self.equal(RunSpec("CD", "sa", mix_id=1, use_mapi=False))
        assert self.equal(RunSpec("CD", "sa", True, mix_id=1))

    def test_masks_queue_overrides(self):
        assert self.equal(RunSpec("CD", "sa", mix_id=1,
                                  config=(("queues.read_entries", 16),)))

    def test_splits_on_workload(self):
        assert not self.equal(RunSpec("CD", "sa", mix_id=2))
        assert not self.equal(RunSpec("CD", "sa",
                                      workload="adversarial_conflict"))
        assert not self.equal(RunSpec("CD", "sa", alone_benchmark="mcf"))

    def test_splits_on_seed_organization_lee(self):
        assert not self.equal(RunSpec("CD", "sa", mix_id=1, seed=42))
        assert not self.equal(RunSpec("CD", "dm", mix_id=1))
        assert not self.equal(RunSpec("CD", "sa", mix_id=1,
                                      lee_writeback=True))

    def test_splits_on_warm_relevant_params(self):
        for change in ({"replay_accesses": 500}, {"footprint_scale": 1 / 200},
                       {"capacity_scale": 4}):
            other = dataclasses.replace(PARAMS, **change)
            assert (warm_group_key(self.BASE, PARAMS)
                    != warm_group_key(self.BASE, other))

    def test_splits_on_geometry_override(self):
        assert not self.equal(RunSpec("CD", "sa", mix_id=1,
                                      config=(("l2.size_bytes", 65536),)))


class TestWarmForkBitIdentity:
    @pytest.mark.parametrize("design,scheduler", [
        ("CD", "bliss"), ("ROD", "frfcfs"), ("DCA", "bliss"),
        ("DCA", "frfcfs")])
    def test_forked_equals_cold(self, design, scheduler):
        donor = RunSpec("CD", "sa", mix_id=1)           # warms the cache
        spec = RunSpec(design, "sa", mix_id=1, scheduler=scheduler)
        cache = WarmCache()
        run_one(donor, PARAMS, warm_cache=cache)
        warm = run_one(spec, PARAMS, warm_cache=cache)
        cold = run_one(spec, PARAMS)
        assert warm.meta["warm"]["restored"] is True
        assert strip_meta(warm) == strip_meta(cold)

    def test_capturing_run_also_equals_cold(self):
        """The donor run (the one that captures) must be unperturbed by
        the capture of its array."""
        spec = RunSpec("DCA", "sa", mix_id=1)
        captured = run_one(spec, PARAMS, warm_cache=WarmCache())
        cold = run_one(spec, PARAMS)
        assert captured.meta["warm"]["restored"] is False
        assert strip_meta(captured) == strip_meta(cold)

    def test_direct_mapped_and_lee(self):
        for extra in ({"organization": "dm"}, {"lee_writeback": True}):
            donor = RunSpec("CD", mix_id=1, **extra)
            spec = RunSpec("DCA", mix_id=1, **extra)
            cache = WarmCache()
            run_one(donor, PARAMS, warm_cache=cache)
            warm = run_one(spec, PARAMS, warm_cache=cache)
            assert warm.meta["warm"]["restored"] is True
            assert strip_meta(warm) == strip_meta(run_one(spec, PARAMS))

    @pytest.mark.parametrize("organization", ["sa", "dm"])
    def test_restores_share_no_state(self, organization):
        """Two restores of one capture: running one (and the donor) must
        leave the other restore and the captured image equal to a cold
        run."""
        spec = RunSpec("DCA", organization, mix_id=1)
        donor = build_system(RunSpec("CD", organization, mix_id=1), PARAMS)
        donor.functional_warmup(replay_accesses=PARAMS.replay_accesses)
        warm = donor.capture_warm_state()
        image = copy.deepcopy(warm.array_state)
        first = build_system(spec, PARAMS)
        second = build_system(spec, PARAMS)
        for system in (first, second):
            system.restore_warm_state(warm)
            system.begin(PARAMS.warmup_insts, PARAMS.measure_insts)
        first.finish()
        for array in (first.controller.array, donor.controller.array):
            for i in range(256):                 # evict across many sets
                array.fill((1 << 43) + i * 64, dirty=True)
        assert first.controller.array.capture_state() != image
        donor.begin(PARAMS.warmup_insts, PARAMS.measure_insts)
        donor.finish()
        assert warm.array_state == image
        assert strip_meta(second.finish()) == strip_meta(run_one(spec, PARAMS))


class TestRestoreValidation:
    def make_warm(self, spec=RunSpec("CD", "sa", mix_id=1)):
        system = build_system(spec, PARAMS)
        system.functional_warmup(replay_accesses=PARAMS.replay_accesses)
        return system.capture_warm_state()

    def test_rejects_wrong_organization(self):
        warm = self.make_warm()
        other = build_system(RunSpec("CD", "dm", mix_id=1), PARAMS)
        with pytest.raises(WarmStateError, match="does not match"):
            other.restore_warm_state(warm)

    def test_rejects_wrong_workload_or_seed(self):
        warm = self.make_warm()
        for spec in (RunSpec("CD", "sa", mix_id=2),
                     RunSpec("CD", "sa", mix_id=1, seed=123)):
            with pytest.raises(WarmStateError, match="does not match"):
                build_system(spec, PARAMS).restore_warm_state(warm)

    def test_identity_fields_are_warm_identity(self):
        """The captured identity is warm_identity's dict, and the fields it
        fills are all of WarmState's fields but the version and payload."""
        spec = RunSpec("CD", "sa", mix_id=1)
        warm = self.make_warm(spec)
        system = build_system(spec, PARAMS)
        identity = warm_identity(
            system.cfg, "sa", system._seed,
            [b.name for b in system.benchmarks], PARAMS.footprint_scale,
            False)
        assert {k: getattr(warm, k) for k in identity} == identity
        payload = {"schema_version", "trace_counts", "array_state",
                   "l2_state", "meta"}
        assert (set(identity) | payload
                == {f.name for f in dataclasses.fields(WarmState)})

    def test_rejects_running_system(self):
        warm = self.make_warm()
        system = build_system(RunSpec("DCA", "sa", mix_id=1), PARAMS)
        system.restore_warm_state(warm)
        system.begin(1_000, 1_000)
        system.sim.run(max_events=100)
        with pytest.raises(WarmStateError):
            system.restore_warm_state(warm)

    def test_rejects_consumed_trace(self):
        warm = self.make_warm()
        system = build_system(RunSpec("DCA", "sa", mix_id=1), PARAMS)
        for core in system.cores:
            next(core.trace)
        with pytest.raises(WarmStateError, match="consumed"):
            system.restore_warm_state(warm)

    def test_capture_requires_pristine_system(self):
        system = build_system(RunSpec("CD", "sa", mix_id=1), PARAMS)
        system.begin(1_000, 1_000)
        system.sim.run(max_events=50)
        with pytest.raises(WarmStateError, match="before timed"):
            system.capture_warm_state()

    def test_stale_schema_rejected(self):
        # 0: a corrupt version; 2: an array_state holding a shared per-set
        # backing dict instead of flat columns; 3: a direct-mapped
        # array_state holding an entry dict instead of flat columns; 5: an
        # identity that still names the array's victim policy.
        for version in (0, 2, 3, 5):
            warm = dataclasses.replace(self.make_warm(),
                                       schema_version=version)
            system = build_system(RunSpec("CD", "sa", mix_id=1), PARAMS)
            with pytest.raises(WarmStateError, match="schema"):
                system.restore_warm_state(warm)

    def test_rejects_mismatched_replay_budget(self):
        """run_one asserts a cached warm state was captured with exactly
        its params' replay budget — a quick-scale warm state must not
        silently stand in for a full-scale warm-up, even if it were
        filed under the wrong key."""
        warm = self.make_warm()              # captured with PARAMS budget
        spec = RunSpec("DCA", "sa", mix_id=1)
        doubled = dataclasses.replace(
            PARAMS, replay_accesses=PARAMS.replay_accesses * 2)
        cache = WarmCache()
        cache.put(warm_group_key(spec, doubled), warm)
        with pytest.raises(WarmStateError, match="replay"):
            run_one(spec, doubled, warm_cache=cache)
        # The matching budget passes.
        cache.put(warm_group_key(spec, PARAMS), warm)
        assert run_one(spec, PARAMS, warm_cache=cache).meta["warm"][
            "restored"] is True

    def test_rejects_mismatched_geometry(self):
        """Same organization string, different resolved geometry (e.g. a
        different capacity scale) must refuse: adopted sets indexed under
        another num_sets would be silently wrong, not almost right."""
        warm = self.make_warm()
        other_params = dataclasses.replace(PARAMS, capacity_scale=4)
        system = build_system(RunSpec("CD", "sa", mix_id=1), other_params)
        with pytest.raises(WarmStateError, match="does not match"):
            system.restore_warm_state(warm)

    def test_failed_validation_mutates_nothing(self):
        """All-or-nothing restore: when a later core fails the
        consumed-trace check, earlier cores' traces must not have been
        fast-forwarded (a fallback cold run would silently skew)."""
        warm = self.make_warm()
        system = build_system(RunSpec("DCA", "sa", mix_id=1), PARAMS)
        next(system.cores[-1].trace)       # only the *last* core consumed
        with pytest.raises(WarmStateError, match="consumed"):
            system.restore_warm_state(warm)
        assert all(c.trace.count == 0 for c in system.cores[:-1])


class TestWarmCacheStore:
    def test_hit_miss_counters(self):
        cache = WarmCache()
        assert cache.get("k") is None and cache.misses == 1
        warm = object()
        cache.put("k", warm)
        assert cache.get("k") is warm and cache.hits == 1

    def test_fifo_eviction(self):
        cache = WarmCache(capacity=2)
        for i in range(3):
            cache.put(f"k{i}", i)
        assert len(cache) == 2
        assert cache.get("k0") is None          # oldest evicted
        assert cache.get("k1") == 1 and cache.get("k2") == 2

    def test_put_existing_key_does_not_evict(self):
        cache = WarmCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)                        # replace, not grow
        assert len(cache) == 2 and cache.get("b") == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            WarmCache(capacity=0)


class TestRunGridWarm:
    SPECS = [RunSpec(d, "sa", mix_id=1, scheduler=s)
             for d in ("CD", "DCA") for s in ("bliss", "frfcfs")]

    def run(self, warm: bool):
        return run_grid(self.SPECS, PARAMS, jobs=1, use_cache=False,
                        store=ResultStore(enabled=False), warm_cache=warm)

    def test_grid_results_identical_and_warm_served(self):
        cold = self.run(False)
        warm = self.run(True)
        assert list(cold) == list(warm) == self.SPECS      # input order
        restored = [r.meta["warm"]["restored"] for r in warm.values()]
        assert restored.count(False) >= 1                  # one capture...
        assert restored.count(True) >= len(self.SPECS) - 2  # ...rest forked
        for spec in self.SPECS:
            assert strip_meta(cold[spec]) == strip_meta(warm[spec])
            assert "warm" not in cold[spec].meta

    def test_warm_provenance_not_persisted_in_result_cache(self, tmp_path):
        """Warm and cold runs share cache entries, so stored entries must
        be provenance-free: a later cache hit must not replay this run's
        restored/cold flags.  The in-memory results keep them."""
        store = ResultStore(tmp_path / "cache")
        results = run_grid(self.SPECS[:2], PARAMS, jobs=1, store=store,
                           warm_cache=True)
        assert all("warm" in r.meta for r in results.values())
        for spec in self.SPECS[:2]:
            cached = store.load(spec, PARAMS)
            assert cached is not None
            assert "warm" not in cached.meta
            assert cached.meta["spec"]           # other meta survives

    def test_unkeyable_spec_is_isolated_not_fatal(self):
        """A spec whose warm key cannot even be computed (an unknown
        config field fails resolving the config in the parent) must fail
        as one point, not crash the grouping."""
        bad = RunSpec("CD", "sa", mix_id=1, config=(("queues.nope", 16),))
        with pytest.raises(ValueError, match="unknown config field"):
            warm_group_key(bad, PARAMS)
        with pytest.raises(GridExecutionError) as exc:
            run_grid([self.SPECS[0], bad], PARAMS, jobs=1, use_cache=False,
                     store=ResultStore(enabled=False), warm_cache=True)
        assert bad in exc.value.failures
        assert self.SPECS[0] in exc.value.results

    def test_failure_isolated_within_group(self, tmp_path):
        bad = RunSpec("DCA", "sa", workload="trace:" + str(tmp_path / "no"))
        specs = [self.SPECS[0], bad, self.SPECS[1]]
        with pytest.raises(GridExecutionError) as exc:
            run_grid(specs, PARAMS, jobs=1, use_cache=False,
                     store=ResultStore(enabled=False), warm_cache=True)
        assert bad in exc.value.failures
        assert set(exc.value.results) == {self.SPECS[0], self.SPECS[1]}
