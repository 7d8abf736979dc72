"""Full-system wiring: cores -> shared L2 -> DRAM-cache controller -> memory.

One :class:`System` is one simulation: a multiprogrammed mix of benchmark
traces (one per core), the shared L2 with MSHRs, the chosen DRAM-cache
controller design over the stacked-DRAM substrate, and off-chip main
memory.  The Fig. 19 variant installs Lee et al.'s DRAM-aware writeback
policy at the L2.

Timing notes:

* L2 hit latency is charged to cores as an un-hidable fraction (OoO cores
  hide most of a 20-cycle hit under MLP);
* the L2's 20-cycle lookup on the *miss* path is a design-independent
  constant adder and is folded out (all compared designs shift equally);
* the on-chip bus (256-bit @ 4 GHz: 0.5 ns per block) is folded out for
  the same reason.

Warm-up: stats of every component reset when the *last* core crosses its
warm-up budget; per-core IPC is measured from each core's own crossing to
its own finish, matching the paper's fast-forward-then-measure flow.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Mapping, Optional, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.core import make_controller
from repro.core.access import CacheRequest, RequestType
from repro.mem.llc_writeback import DRAMAwareWritebackIndex
from repro.mem.mainmem import BankedMainMemory
from repro.mem.mshr import MSHREntry, MSHRFile
from repro.mem.sram import SRAMCache, interleave
from repro.sim.cpu import Core, L2_HIT, MISS, MSHR_FULL
from repro.sim.engine import Simulator
from repro.snapshot import (
    WARM_STATE_VERSION, WarmState, WarmStateError, warm_identity)
from repro.workloads.cursor import TraceCursor
from repro.workloads.profiles import BenchmarkProfile

# Members bound once (see repro.core.access).
_READ = RequestType.READ
_WRITEBACK = RequestType.WRITEBACK

#: Version of the :class:`SystemResult` on-disk schema.  Bump whenever the
#: result fields, the metrics hierarchy, or the semantics of any reported
#: value change — the experiment cache keys on it, so entries written by
#: older code are invalidated instead of silently reused (see DESIGN.md).
#: v4: exact run termination (Simulator.stop at the last core's retiring
#: event) — trailing-event accumulation differs from v3 entries.
#: v5: pluggable substrate fidelity — SystemConfig.substrate selects the
#: DRAM model, and command-fidelity runs carry extra ChannelStats
#: counters (refreshes, tFAW/tRRD/refresh stalls, policy closes) in the
#: metrics snapshot.  Burst-fidelity values are bit-identical to v4; the
#: bump invalidates cache entries because the key space gained an input.
#: v6: topology-generalised memory system — mainmem.model selects a flat
#: or banked off-chip memory (banked runs carry ``mainmem_dev`` per-channel
#: groups and a ``mainmem_total`` rollup), MainMemoryStats gained
#: write-latency/bus-wait counters, ChannelStats gained ``rank_switches``,
#: and multi-rank command-fidelity runs publish per-rank groups plus a
#: cross-channel ``rank_totals`` rollup.  Flat/default values are
#: bit-identical to v5 up to the new (deterministic) counters.
#: v7: cache-hierarchy knobs (L2 hardware prefetching, a bounded L2
#: write buffer, victim-selection policies) with their result fields and
#: metric groups; ``mshr`` became a MetricGroup with demand-latency
#: accumulators, and the MSHR wakeup path wakes min(free slots, waiters)
#: FIFO and counts one full stall per held op.
#: v8: those three knobs are deleted, with their SystemResult fields,
#: the write-buffer metric group and the MSHR file's
#: ``prefetch_allocations``/``prefetch_rejects`` counters.
#: Every remaining value is bit-identical to v7.
#: v9: the command model's page policies, its ``substrate.refresh``
#: switch and the ``rorabachco`` interleave are deleted; command-fidelity
#: metrics lose ``policy_closes``.  Every remaining value is
#: bit-identical to v8.
RESULT_SCHEMA_VERSION = 9


class ResultSchemaError(ValueError):
    """A serialised result does not match the current schema version."""


@dataclass
class SystemResult:
    """Everything the experiment harness needs, as plain picklable data.

    This is a thin typed facade over the system's metrics registry: the
    named fields are the headline values every figure reads, and
    :attr:`metrics` carries the full hierarchical snapshot (all counters
    of every component) for anything else, so adding a metric no longer
    requires a field here.
    """

    SCHEMA_VERSION: ClassVar[int] = RESULT_SCHEMA_VERSION

    design: str
    organization: str
    xor_remap: bool
    benchmarks: list[str]
    ipcs: list[float]
    elapsed_ps: int
    # controller-level
    mean_read_latency_ps: float
    dram_read_hit_rate: float
    reads_done: int
    writebacks: int
    refills: int
    read_priority_inversions: int
    lr_ofs_issues: int
    lr_drain_issues: int
    # substrate-level
    accesses_per_turnaround: float
    read_row_hit_rate: float
    turnarounds: int
    dram_accesses: int
    # hierarchy-level
    l2_hit_rate: float
    mainmem_reads: int
    mainmem_writes: int
    lee_eager_writebacks: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    #: full registry snapshot: {component: {counter/derived: value}}
    metrics: dict[str, Any] = field(default_factory=dict)
    schema_version: int = RESULT_SCHEMA_VERSION

    def to_cache_dict(self) -> dict[str, Any]:
        """Plain-JSON form for the result store."""
        return dataclasses.asdict(self)

    @classmethod
    def from_cache_dict(cls, data: Mapping[str, Any]) -> "SystemResult":
        """Rebuild from :meth:`to_cache_dict` output, validating the schema.

        Raises :class:`ResultSchemaError` when the entry was written by a
        different schema version or its field set doesn't match the current
        dataclass — both mean the entry is stale, never "close enough".
        """
        if not isinstance(data, Mapping):
            raise ResultSchemaError(f"expected a mapping, got {type(data)}")
        version = data.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise ResultSchemaError(
                f"schema version {version!r} != current {cls.SCHEMA_VERSION}")
        expected = {f.name for f in dataclasses.fields(cls)}
        got = set(data)
        if got != expected:
            raise ResultSchemaError(
                f"field set mismatch: missing {sorted(expected - got)}, "
                f"unknown {sorted(got - expected)}")
        return cls(**data)


class System:
    """A complete simulated machine for one workload mix."""

    def __init__(self, cfg: SystemConfig, design: str,
                 benchmarks: Sequence[BenchmarkProfile],
                 organization: str = "sa", xor_remap: bool = False,
                 use_mapi: bool = True, scheduler: str = "bliss",
                 lee_writeback: bool = False, seed: int = 0,
                 footprint_scale: float = 1.0):
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        cfg = replace(cfg, num_cores=len(benchmarks))
        self.cfg = cfg
        self.design = design.upper()
        self.organization = organization
        self.xor_remap = xor_remap
        self.benchmarks = list(benchmarks)
        self.sim = Simulator()
        self.controller = make_controller(
            design, self.sim, cfg, organization=organization,
            xor_remap=xor_remap, use_mapi=use_mapi, scheduler=scheduler)

        self.l2 = SRAMCache(cfg.l2,
                            row_of=self._array_row if lee_writeback else None)
        self.lee: Optional[DRAMAwareWritebackIndex] = None
        if lee_writeback:
            self.lee = DRAMAwareWritebackIndex(self.l2, self._array_row)
        self.mshr = MSHRFile(cfg.l2_mshrs)

        self._l2_stall_ps = round(cfg.l2.latency_cycles * cfg.cpu.cycle_ps
                                  * cfg.cpu.l2_hit_stall_fraction)
        self._block_mask = ~(cfg.l2.block_bytes - 1)

        self._footprint_scale = footprint_scale
        self._seed = seed
        self.cores: list[Core] = []
        for i, prof in enumerate(benchmarks):
            # Trace-source protocol: any workload frontend (synthetic
            # profile, adversarial scenario, trace-file replay)
            # builds its own stream; see repro/workloads/scenarios.py.
            # The TraceCursor wrapper counts the ops consumed, which is
            # what lets a warm state resume the stream on a fresh system
            # by skipping that many (see repro/workloads/cursor.py).
            trace = TraceCursor(prof, seed=seed * 1000003 + i * 7919 + 1,
                                core_offset=i << 44,
                                footprint_scale=footprint_scale)
            self.cores.append(Core(self.sim, i, cfg.cpu, trace, self))

        self._mshr_waiters: list[Core] = []
        self._pending_entry: Optional[MSHREntry] = None
        self._warmed = 0
        self._finished = 0

        # Unified metrics tree over every live counter group in the
        # machine; SystemResult.metrics is exactly its snapshot.  The
        # controller's registry (already holding ``controller`` +
        # ``substrate``) is extended in place, so there is one tree —
        # a group registered at either level shows up everywhere.
        self.metrics = self.controller.metrics
        self.metrics.register("l2", self.l2.stats)
        self.metrics.register("mshr", self.mshr.stats)
        self.metrics.register("mainmem", self.controller.mainmem.stats)
        if isinstance(self.controller.mainmem, BankedMainMemory):
            # The banked model's per-channel substrate groups mount as a
            # subtree, so results expose off-chip bank/bus behaviour with
            # the same shape as the cache's own substrate.
            self.metrics.register("mainmem_dev", self.controller.mainmem.metrics)
        if self.controller.mapi is not None:
            self.metrics.register("mapi", self.controller.mapi.stats)
        if self.lee is not None:
            self.metrics.register("lee", self.lee.stats)

    def _array_row(self, addr: int) -> int:
        """DRAM-cache row holding the tag structure guarding ``addr``."""
        return (self.controller.array.tag_location(addr)
                // self.cfg.dram_cache.row_bytes)

    # ------------------------------------------------------------- memory path

    def mem_access(self, core: Core, addr: int, is_write: bool,
                   pc: int, retrying: bool = False) -> tuple[int, int]:
        """The core-facing memory operation.  Returns (outcome, stall_ps).

        ``retrying`` marks the re-issue of an op the core already held on
        MSHR_FULL: the MSHR skips the (already counted) stall bump.
        """
        addr &= self._block_mask
        if self.l2.touch(addr, is_write):
            return L2_HIT, self._l2_stall_ps

        entry, fresh = self.mshr.allocate(addr, self.sim.now,
                                          is_write=is_write, retry=retrying)
        if entry is None:
            return MSHR_FULL, 0
        self._pending_entry = entry
        if fresh:
            req = CacheRequest(_READ, addr, core.core_id, pc=pc,
                               on_done=self._l2_fill_done)
            self.controller.submit(req)
        return MISS, 0

    def register_load(self, core: Core, token: int) -> None:
        """Attach the issuing load to the MSHR entry just touched."""
        entry = self._pending_entry
        assert entry is not None   # mem_access just allocated it
        entry.waiters.append((core, token))

    def wait_for_mshr(self, core: Core) -> None:
        self._mshr_waiters.append(core)

    def _l2_fill_done(self, req: CacheRequest) -> None:
        """DRAM cache (or memory) returned data for an L2 miss."""
        entry = self.mshr.complete(req.addr, self.sim.now)
        victim = self.l2.fill(req.addr, dirty=entry.any_write)
        if victim is not None:
            self._emit_writebacks(victim, req.core_id)
        for core, token in entry.waiters:
            core.load_done(token)
        if self._mshr_waiters:
            # Wakeup fairness: exactly one slot freed, so wake
            # min(free slots, waiters) cores FIFO — never the whole list.
            # Waking more would stampede cores into retries that mostly
            # re-stall.
            n = min(self.mshr.free, len(self._mshr_waiters))
            if n:
                woken = self._mshr_waiters[:n]
                del self._mshr_waiters[:n]
                for core in woken:
                    core.mshr_freed()

    def _emit_writebacks(self, victim_addr: int, core_id: int) -> None:
        """Dirty L2 eviction -> controller writeback (+ Lee's row batch)."""
        self._submit_writeback(victim_addr, core_id)
        if self.lee is not None:
            for addr in self.lee.on_dirty_eviction(victim_addr):
                self._submit_writeback(addr, core_id)

    def _submit_writeback(self, addr: int, core_id: int) -> None:
        """Hand one writeback to the controller."""
        self.controller.submit(
            CacheRequest(_WRITEBACK, addr, core_id))

    # ------------------------------------------------------------- lifecycle

    def core_warmed(self, _core: Core) -> None:
        self._warmed += 1
        if self._warmed == len(self.cores):
            self.controller.reset_stats()
            self.controller.mainmem.reset_stats()
            self.l2.stats.reset()
            self.mshr.stats.reset()

    def core_finished(self, _core: Core) -> None:
        self._finished += 1
        if self._finished == len(self.cores):
            # Exact termination: the run ends at this event, not at the
            # next multiple of the drain's check interval.  Without this
            # the end state would depend on how the event loop was
            # sliced (tests/test_system.py runs systems in slices).
            self.sim.stop()

    def functional_warmup(self, replay_accesses: int) -> None:
        """Warm caches without timing, like the paper's fast-forward phase.

        First each benchmark's footprint is bulk-inserted into the
        DRAM-cache array (vectorised; models the steady-state contents a
        4-billion-instruction fast-forward would leave behind).  The
        *replay* then consumes ``replay_accesses`` operations from each
        core's trace, warming L2 contents, dirty bits and stream
        positions: the traces are filtered through the L2 in one
        :meth:`~repro.mem.sram.SRAMCache.filter_traces` pass, and the
        resulting DRAM-cache requests (each miss's dirty victim written
        back before the miss is read) go to the array in one
        :meth:`~repro.cache.dramcache.DRAMCacheArray.fill_many`.
        """
        self._prefill()
        array = self.controller.array
        requests = self.l2.filter_traces(
            [core.trace for core in self.cores], replay_accesses)
        array.fill_many(*interleave(*requests, victims_first=True))
        array.reset_counters()
        self.l2.stats.reset()

    def _prefill(self) -> None:
        """Bulk-insert each benchmark's footprint into the DRAM-cache
        array: the first step of :meth:`functional_warmup`."""
        array = self.controller.array
        scale = self._footprint_scale
        # Consecutive bulk ranges are fused into one grouped pass
        # (bulk_fill_many visits each shared set once instead of once per
        # benchmark); insertion order — and thus LRU clocks, evictions,
        # and final contents — is exactly the sequential per-benchmark
        # order, so a prefill_blocks workload in the middle just flushes
        # the pending batch first.
        pending: list[tuple[int, int, float, int]] = []
        for i, prof in enumerate(self.benchmarks):
            prefill_blocks = getattr(prof, "prefill_blocks", None)
            if prefill_blocks is not None:
                if pending:
                    array.bulk_fill_many(pending)
                    pending = []
                # Workloads with non-contiguous footprints (trace replay,
                # adversaries) name their exact warm set; the contiguous
                # bulk fill below would warm blocks they never touch.
                # Linear in distinct blocks — the same order as
                # generating/parsing the workload itself.
                blocks = np.array(prefill_blocks(),
                                  dtype=np.int64).reshape(-1, 2)
                array.fill_many(blocks[:, 0] + (i << 44),
                                blocks[:, 1].astype(np.bool_))
                continue
            n_blocks = max(1024, int(prof.footprint_bytes * scale)
                           // self.cfg.l2.block_bytes)
            pending.append((i << 44, n_blocks, prof.store_fraction, i + 1))
        if pending:
            array.bulk_fill_many(pending)

    # ------------------------------------------------------------- warm state

    def _warm_identity(self) -> dict[str, Any]:
        return warm_identity(
            self.cfg, self.organization, self._seed,
            [b.name for b in self.benchmarks], self._footprint_scale,
            self.lee is not None)

    def capture_warm_state(self) -> WarmState:
        """Freeze the design-independent warm-up products of this system.

        Must be called after :meth:`functional_warmup` and before any
        timed simulation: the captured image is exactly the functional
        state (DRAM-cache contents, L2 contents, trace positions) that
        every controller design over the same (workload, seed, substrate)
        prefix shares, so one capture forks a whole design sweep.  The
        array capture is an immutable copy of its contents, so the donor
        keeps simulating unperturbed (see ``DRAMCacheArray.capture_state``).
        """
        if self.sim.events_run or self.sim.now:
            raise WarmStateError(
                "warm state must be captured before timed simulation "
                f"(events_run={self.sim.events_run}, now={self.sim.now})")
        return WarmState(
            schema_version=WARM_STATE_VERSION,
            **self._warm_identity(),
            trace_counts=[c.trace.count for c in self.cores],
            array_state=self.controller.array.capture_state(),
            l2_state=self.l2.capture_state(),
        )

    def restore_warm_state(self, warm: WarmState) -> None:
        """Adopt a :class:`WarmState` instead of running the warm-up.

        The system must be freshly constructed (nothing simulated, traces
        unconsumed) and built over the same warm-relevant prefix — any
        mismatch raises :class:`WarmStateError` rather than silently
        producing a run that is *almost* the cold-run result.  After the
        restore the run is bit-identical to one that performed
        :meth:`functional_warmup` itself (the warm-cache invariant,
        enforced by tests/test_warm_cache.py).
        """
        if warm.schema_version != WARM_STATE_VERSION:
            raise WarmStateError(
                f"warm state schema {warm.schema_version} != current "
                f"{WARM_STATE_VERSION}")
        mine = self._warm_identity()
        theirs = {k: getattr(warm, k) for k in mine}
        if mine != theirs:
            diffs = {k: (theirs[k], mine[k])
                     for k in mine if mine[k] != theirs[k]}
            raise WarmStateError(
                f"warm state does not match this system: {diffs}")
        if self.sim.events_run or self.sim.now:
            raise WarmStateError("cannot restore into a running system")
        # Validate everything before mutating anything: a partial restore
        # (some traces fast-forwarded, then an error) would leave the
        # system silently unusable for a cold-run fallback.
        for core in self.cores:
            if core.trace.count:
                raise WarmStateError("cannot restore into a consumed trace")
        for core, count in zip(self.cores, warm.trace_counts):
            core.trace.skip(count)
        self.controller.array.restore_state(warm.array_state)
        self.l2.restore_state(warm.l2_state)

    # ------------------------------------------------------------- execution

    def begin(self, warmup_insts: int, measure_insts: int) -> None:
        """Start every core on its timed warm-up and measured budgets.

        The caches must already be warm: run :meth:`functional_warmup`
        or :meth:`restore_warm_state` first (:meth:`run` does the
        former).  Split from :meth:`finish` so callers can drive the
        event loop in slices (``self.sim.run(max_events=...)``) between
        the two, e.g. to interleave several systems in one process.
        """
        for core in self.cores:
            core.start(warmup_insts, measure_insts)

    def finish(self) -> SystemResult:
        """Run the event loop until every core retires; gather metrics.

        Termination is exact — ``core_finished`` stops the engine at the
        retiring event itself — so the result is a pure function of the
        simulation state, however the caller sliced the event loop up to
        that point.  The stop is a one-shot request consumed by the
        slice that executes the retiring event: a caller that keeps
        running slices *afterwards* executes trailing post-retirement
        events (cores generate work indefinitely) and ``finish`` then
        reports that later state — don't slice past the stop if the
        result must match a straight-through run.
        """
        if self._finished < len(self.cores):
            self.sim.drain()
        return self._result()

    def run(self, warmup_insts: int, measure_insts: int,
            replay_accesses: int) -> SystemResult:
        """Warm up, simulate until every core retires its budget, report.

        ``replay_accesses`` is the functional warm-up's per-core budget
        (cache contents; see :meth:`functional_warmup`).  ``warmup_insts``
        is the *timed* warm-up (queues, predictors, row buffers reach
        steady state; stats reset at its end).
        """
        self.functional_warmup(replay_accesses)
        self.begin(warmup_insts, measure_insts)
        return self.finish()

    def _result(self) -> SystemResult:
        snap = self.metrics.snapshot()
        cs = snap["controller"]
        mm = snap["mainmem"]
        # Substrate totals: merge the per-channel groups, then derive.
        ds = self.controller.device.total_stats().snapshot()
        snap["substrate_total"] = ds
        # Topology rollups appear only where the topology is real, so the
        # default (flat, single-rank) metric tree keeps its exact key set.
        mmem = self.controller.mainmem
        if isinstance(mmem, BankedMainMemory):
            snap["mainmem_total"] = mmem.total_stats().snapshot()
        rank_totals = self.controller.device.rank_totals()
        if rank_totals:
            snap["rank_totals"] = {f"rank{j}": g.snapshot()
                                   for j, g in enumerate(rank_totals)}
        return SystemResult(
            design=self.design,
            organization=self.organization,
            xor_remap=self.xor_remap,
            benchmarks=[b.name for b in self.benchmarks],
            ipcs=[c.measured_ipc() for c in self.cores],
            elapsed_ps=self.sim.now,
            mean_read_latency_ps=cs["mean_read_latency_ps"],
            dram_read_hit_rate=cs["dram_read_hit_rate"],
            reads_done=cs["reads_done"],
            writebacks=cs["writebacks_submitted"],
            refills=cs["refills_submitted"],
            read_priority_inversions=cs["read_priority_inversions"],
            lr_ofs_issues=cs["lr_ofs_issues"],
            lr_drain_issues=cs["lr_drain_issues"],
            accesses_per_turnaround=ds["accesses_per_turnaround"],
            read_row_hit_rate=ds["read_row_hit_rate"],
            turnarounds=ds["turnarounds"],
            dram_accesses=ds["total_accesses"],
            l2_hit_rate=snap["l2"]["hit_rate"],
            mainmem_reads=mm["reads"],
            mainmem_writes=mm["writes"],
            lee_eager_writebacks=(snap["lee"]["eager_writebacks"]
                                  if "lee" in snap else 0),
            metrics=snap,
        )
