"""Differential snapshot tests: restore-then-continue == straight-through.

The tentpole invariant of repro.snapshot: capturing a running simulation
and restoring it — in-process (deepcopy) or via the pickled on-disk form —
must be invisible.  For every controller design x underlying scheduler,
random (seed, capture-point) trials run three ways:

* **A** straight through (an event-loop slice, then finish);
* **B** identically, but with a snapshot captured at the slice boundary;
* **C** restored from B's snapshot and continued.

A == B proves capture does not perturb the donor; B == C proves the
restore is bit-identical.  Equality is checked at three depths: the full
state signature (event heap, queue contents with PR/LR/bank context,
bank/bus timing, scheduler and predictor state, caches, MSHRs, cores),
the per-request completion times of every post-capture request, and the
final metric-laden results.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro import snapshot
from repro.config import SubstrateConfig, scaled_config
from repro.core.access import Access
from repro.sim.system import System
from repro.workloads.profiles import profile

#: the six controller design points (design x underlying scheduler)
DESIGN_POINTS = [(d, s)
                 for d in ("CD", "ROD", "DCA")
                 for s in ("bliss", "frfcfs")]

WARMUP, MEASURE, REPLAY = 2_000, 6_000, 1_000
SCALE = 1 / 400


def small_cfg():
    base = scaled_config(8)
    return replace(base,
                   l2=replace(base.l2, size_bytes=128 * 1024),
                   dram_cache=replace(base.dram_cache, size_bytes=8 * 2**20))


def make_system(design: str, scheduler: str = "bliss", seed: int = 1,
                organization: str = "sa", lee: bool = False,
                use_mapi: bool = True,
                substrate: SubstrateConfig | None = None) -> System:
    cfg = small_cfg()
    if substrate is not None:
        # Shrink the refresh interval so the mechanism fires several
        # times even at this test's tiny instruction budget.
        cfg = replace(cfg, substrate=substrate,
                      timings=replace(cfg.timings, tREFI=400_000))
    return System(cfg, design,
                  [profile("mcf"), profile("libquantum")],
                  organization=organization, scheduler=scheduler,
                  lee_writeback=lee, use_mapi=use_mapi, seed=seed,
                  footprint_scale=SCALE)


def begin(system: System) -> System:
    system.begin(WARMUP, MEASURE, replay_accesses=REPLAY)
    return system


def spy_completions(system: System) -> list:
    """Record (type, addr, arrival, completion) of every request submitted
    from now on, through the real submit path."""
    log: list = []
    real = system.controller.submit

    def submit(req):
        log.append(req)
        real(req)

    system.controller.submit = submit
    return log


def completion_times(log: list) -> list[tuple]:
    return [(int(r.rtype), r.addr, r.core_id, r.arrival, r.done_time)
            for r in log]


class TestDifferential:
    @pytest.mark.parametrize("design,scheduler", DESIGN_POINTS)
    def test_restore_then_continue_is_bit_identical(self, design, scheduler):
        """Property-style over random seeds and capture points."""
        rng = random.Random(hash((design, scheduler, 0xD1FF)) & 0xFFFF)
        for _ in range(2):
            seed = rng.randrange(1, 10_000)

            # A runs straight through; its event count bounds the random
            # capture point so every trial captures genuinely mid-run.
            a = begin(make_system(design, scheduler, seed))
            res_a = a.finish()
            total = a.sim.events_run
            k = rng.randrange(total // 4, 3 * total // 4)

            b = begin(make_system(design, scheduler, seed))
            b.sim.run(max_events=k)
            snap = snapshot.capture(b, meta={"k": k, "seed": seed})
            c = snapshot.restore(snap)

            # The restored system is in the captured state, observably.
            assert snapshot.state_signature(c) == snapshot.state_signature(b)

            # Lock-step continuation: mid-flight queue contents, bank
            # timing and heap stay bit-identical event for event.
            log_b, log_c = spy_completions(b), spy_completions(c)
            b.sim.run(max_events=1_000)
            c.sim.run(max_events=1_000)
            assert snapshot.state_signature(c) == snapshot.state_signature(b)

            res_b = b.finish()
            res_c = c.finish()

            # Per-request completion times of the whole continuation.
            assert completion_times(log_c) == completion_times(log_b)
            # Full results: metrics snapshot, IPCs, elapsed time.
            assert res_b.to_cache_dict() == res_c.to_cache_dict()
            # Neither the capture nor the sliced event-loop driving
            # perturbed the run: it equals the straight-through result.
            assert res_a.to_cache_dict() == res_b.to_cache_dict()

    @pytest.mark.parametrize("page_policy", ["open", "timeout"])
    def test_command_fidelity_substrate(self, page_policy):
        """The command-level substrate's extra state — refresh due times,
        blackout ends, per-rank ACT windows, page-policy idle marks —
        must survive capture/restore bit-for-bit (it travels through
        Channel.capture_state in the signature and deepcopy in the
        snapshot)."""
        sub = SubstrateConfig(fidelity="command", page_policy=page_policy)
        a = begin(make_system("DCA", seed=13, substrate=sub))
        res_a = a.finish()
        # The run genuinely exercised the command-level mechanisms.
        total = res_a.metrics["substrate_total"]
        assert total["refreshes_issued"] > 0
        assert total["rrd_stalls"] + total["faw_stalls"] > 0

        b = begin(make_system("DCA", seed=13, substrate=sub))
        b.sim.run(max_events=a.sim.events_run // 2)
        c = snapshot.restore(snapshot.capture(b))
        assert snapshot.state_signature(c) == snapshot.state_signature(b)
        res_b, res_c = b.finish(), c.finish()
        assert res_b.to_cache_dict() == res_c.to_cache_dict()
        assert res_c.to_cache_dict() == res_a.to_cache_dict()

    def test_direct_mapped_organization(self):
        a = begin(make_system("DCA", organization="dm", seed=7))
        res_a = a.finish()
        mid = a.sim.events_run // 2

        b = begin(make_system("DCA", organization="dm", seed=7))
        b.sim.run(max_events=mid)
        c = snapshot.restore(snapshot.capture(b))
        assert snapshot.state_signature(c) == snapshot.state_signature(b)
        assert b.finish().to_cache_dict() == res_a.to_cache_dict()
        assert c.finish().to_cache_dict() == res_a.to_cache_dict()

    def test_lee_writeback_row_index_survives(self):
        """The L2's dirty-row index and the Lee batcher use a bound-method
        row mapping; a restored system must batch identically."""
        probe = begin(make_system("DCA", seed=3, lee=True))
        res_probe = probe.finish()
        assert res_probe.lee_eager_writebacks > 0   # the mechanism fired

        b = begin(make_system("DCA", seed=3, lee=True))
        b.sim.run(max_events=probe.sim.events_run // 2)
        c = snapshot.restore(snapshot.capture(b))
        res_b, res_c = b.finish(), c.finish()
        assert res_b.to_cache_dict() == res_c.to_cache_dict()
        assert res_c.to_cache_dict() == res_probe.to_cache_dict()

    def test_one_snapshot_forks_independent_runs(self):
        probe = begin(make_system("ROD", seed=11))
        probe.finish()
        total = probe.sim.events_run

        b = begin(make_system("ROD", seed=11))
        b.sim.run(max_events=total // 2)
        snap = snapshot.capture(b)
        c1, c2 = snapshot.restore(snap), snapshot.restore(snap)
        c1.sim.run(max_events=total // 8)
        # Running one fork never moves the other (or the frozen image).
        assert (snapshot.state_signature(c2)
                == snapshot.state_signature(snapshot.restore(snap)))
        assert c1.finish().to_cache_dict() == c2.finish().to_cache_dict()

    def test_access_seq_is_per_system_not_global(self):
        """The scheduler age tiebreak lives on the Translator, so a
        restored fork continues its own numbering even while the donor
        keeps running — interleaved live simulations never contaminate
        each other (the old class-global counter did)."""
        probe = begin(make_system("CD", seed=5))
        probe.finish()
        b = begin(make_system("CD", seed=5))
        b.sim.run(max_events=probe.sim.events_run // 2)
        captured_seq = b.controller.translator._seq
        c = snapshot.restore(snapshot.capture(b))
        assert c.controller.translator._seq == captured_seq
        b.finish()                       # donor runs on...
        assert b.controller.translator._seq > captured_seq
        # ...without moving the fork's counter.
        assert c.controller.translator._seq == captured_seq
        # Hand-built accesses (no explicit seq) still self-number off the
        # class fallback and never touch any live system.
        before = Access._seq
        from repro.core.access import AccessRole, CacheRequest, RequestType
        req = CacheRequest(RequestType.READ, 0, 0)
        a = Access(AccessRole.TAG_READ, req, 0, 0, 0, 0, 0, 0, 0)
        assert a.seq == before + 1 == Access._seq
        assert c.controller.translator._seq == captured_seq


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        probe = begin(make_system("DCA", "frfcfs", seed=9))
        probe.finish()
        b = begin(make_system("DCA", "frfcfs", seed=9))
        b.sim.run(max_events=probe.sim.events_run // 2)
        snap = snapshot.capture(b)
        path = snapshot.save(snap, tmp_path / "mid.snap")

        loaded = snapshot.load(path)
        assert loaded.schema_version == snapshot.SNAPSHOT_SCHEMA_VERSION
        c = snapshot.restore(loaded)
        assert snapshot.state_signature(c) == snapshot.state_signature(b)
        assert c.finish().to_cache_dict() == b.finish().to_cache_dict()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(snapshot.SnapshotError, match="magic"):
            snapshot.load(path)

    def test_stale_schema_rejected(self, tmp_path):
        b = begin(make_system("CD", seed=2))
        path = snapshot.save(snapshot.capture(b), tmp_path / "old.snap")
        raw = bytearray(path.read_bytes())
        # 99: a corrupt version field; 2: a file whose pickled engine is
        # the calendar-queue Simulator; 3: a file whose DRAM-cache array
        # holds per-set objects instead of flat columns; 4: a file whose
        # direct-mapped array holds an entry dict instead of flat columns;
        # 6: a file whose channels hold per-bank proxy objects; 7: a file
        # whose engine heap holds Event objects; 8: a file whose access
        # queues hold an entries list and position maps.
        for version in (99, 2, 3, 4, 6, 7, 8):
            raw[len(b"DCASNAP1")] = version
            path.write_bytes(bytes(raw))
            with pytest.raises(snapshot.SnapshotError, match="schema"):
                snapshot.load(path)

    def test_restore_rejects_stale_in_memory_schema(self):
        b = begin(make_system("CD", seed=2))
        snap = snapshot.capture(b)
        snap.schema_version = 0
        with pytest.raises(snapshot.SnapshotError):
            snapshot.restore(snap)
