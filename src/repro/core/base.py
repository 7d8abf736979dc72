"""Shared DRAM-cache controller machinery.

Everything the three designs (CD / ROD / DCA) have in common lives here:

* request admission with per-channel overflow FIFOs (Table II queue sizes
  apply to *new* requests; continuation accesses of in-flight requests use
  reserved slots, as real controllers do to avoid deadlock);
* the request state machines driven by access-completion callbacks (the
  staged translation of the paper's Fig. 2, including dirty-victim reads
  and main-memory traffic);
* MAP-I miss-probe handling (parallel memory fetch on predicted misses,
  discarded when the tag check turns out to be a hit — the cached copy may
  be dirtier than memory);
* the write-queue flush state machine with low/high watermarks;
* the pipelined scheduling loop: a new scheduling decision is taken when
  the previous access's data burst *starts*, so the next access's bank
  preparation (PRE/ACT) overlaps the in-flight burst — one-deep lookahead,
  identical for every design.

Subclasses implement :meth:`BaseController._route` — which queue an
access belongs to (this is the entire CD-vs-ROD distinction).  DCA also
overrides :meth:`BaseController._select_read` — which read to issue at a
scheduling slot (this is where its PR/LR handling lives) — and
registers a post-issue hook (``_issue_hook``).

Every DRAM access walks this module's loop (kick -> decide -> select ->
pick -> issue -> complete), so it routes each access once, tests the
decision-pending flag inline where it kicks, and makes no call that
would do nothing (see DESIGN.md, "Indexed scheduling fast path").  It
takes a decision only when the channel's in-flight window has a free
slot: the completion that frees one kicks, as its last action, through
:meth:`~repro.sim.engine.Simulator.asap`, which runs the decision at
once when it would be the next event anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.mapi import MAPIPredictor
from repro.cache.translator import Translator
from repro.config import SystemConfig
from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.bliss import BLISSScheduler
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.queues import CORE_BITS, AccessQueue, ClassBuckets
from repro.dram.device import DRAMDevice
from repro.mem.mainmem import AnyMainMemory, make_mainmem
from repro.metrics.registry import MetricGroup, MetricRegistry, derived
from repro.sim.engine import Simulator

# Members bound once (see repro.core.access).
_READ = RequestType.READ
_WRITEBACK = RequestType.WRITEBACK
_REFILL = RequestType.REFILL
_TAG_READ = AccessRole.TAG_READ
_DATA_READ = AccessRole.DATA_READ
_PR = Priority.PR
_LR = Priority.LR


class ControllerStats(MetricGroup):
    """Controller-level counters (substrate counters live on the channels)."""

    COUNTERS = (
        "reads_submitted",
        "writebacks_submitted",
        "refills_submitted",
        "reads_done",
        "read_latency_sum_ps",
        "read_hits",
        "read_misses",
        "writeback_hits",
        "writeback_misses",
        "memory_fetches",
        "wasted_fetches",           # MAP-I predicted miss, tag said hit
        "victim_mem_writes",
        "forced_flushes",
        "opportunistic_flushes",
        "read_priority_inversions",  # LR issued from read pool while a PR waited
        "lr_ofs_issues",             # DCA: LRs drained by OFS
        "lr_drain_issues",           # DCA: LRs drained by Algorithm 1 hysteresis
        "forwarded_reads",           # reads served from the write buffer
    )

    @derived
    def mean_read_latency_ps(self) -> float:
        return (self.read_latency_sum_ps / self.reads_done
                if self.reads_done else 0.0)

    @derived
    def dram_read_hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0


_SCHEDULERS = {"bliss": BLISSScheduler, "frfcfs": FRFCFSScheduler}


class BaseController:
    """Common controller: queues, translation, flushing, scheduling loop."""

    #: paper name; set by subclasses ("CD" / "ROD" / "DCA")
    design = "BASE"

    def __init__(self, sim: Simulator, cfg: SystemConfig,
                 organization: str = "sa", xor_remap: bool = False,
                 use_mapi: bool = True, scheduler: str = "bliss",
                 mainmem: Optional[AnyMainMemory] = None):
        # Unset queue sizes take this design's Table II sizes.
        cfg = replace(cfg, queues=cfg.queues.for_design(self.design))
        self.sim = sim
        self.cfg = cfg
        self.organization = organization
        self.device = DRAMDevice(cfg.timings, cfg.org, xor_remap=xor_remap,
                                 substrate=cfg.substrate)
        self.array = DRAMCacheArray(cfg.dram_cache, organization)
        self.translator = Translator(self.array, self.device.mapper)
        self.mapi = MAPIPredictor(cfg.num_cores) if use_mapi else None
        self.mainmem = (mainmem if mainmem is not None
                        else make_mainmem(sim, cfg.mainmem))

        nch = cfg.org.channels
        try:
            sched_cls = _SCHEDULERS[scheduler.lower()]
        except KeyError:
            raise ValueError(f"unknown scheduler {scheduler!r}") from None
        if cfg.num_cores > 1 << CORE_BITS:
            raise ValueError(
                f"num_cores={cfg.num_cores}: queue bucket keys hold a core "
                f"id in {CORE_BITS} bits")
        self.read_q = [AccessQueue(cfg.queues.read_entries) for _ in range(nch)]
        self.write_q = [AccessQueue(cfg.queues.write_entries) for _ in range(nch)]
        # Admission overflow FIFOs, one per (channel, target queue): a
        # writeback stalled on write-queue space must not block a demand
        # read from entering the read queue (independent structures in
        # real controllers).
        self.waiting_r: list[deque] = [deque() for _ in range(nch)]
        self.waiting_w: list[deque] = [deque() for _ in range(nch)]
        self.flushing = [False] * nch
        self.sched = [sched_cls(cfg.bliss, cfg.num_cores) for _ in range(nch)]
        self._decision_pending = [False] * nch
        self._in_flight = [0] * nch
        self._opp_flushing = [False] * nch
        self._opp_batch = [0] * nch
        #: called with each issued access, or None for no call at all;
        #: DCA registers its RRPC update here
        self._issue_hook: Optional[Callable[[Access], None]] = None
        # Queue knobs flattened: the scheduling loop reads them per issue.
        self._issue_window = cfg.queues.issue_window
        self._low_wm = cfg.queues.write_low_watermark
        self._high_wm = cfg.queues.write_high_watermark
        #: block addr -> youngest in-flight writeback/refill (write buffer
        #: contents; reads to these blocks are forwarded, never scheduled)
        self._pending_writes: dict[int, CacheRequest] = {}
        #: end-of-run drain: ignore the low watermark so queues empty out
        self.draining = False
        self.stats = ControllerStats()
        #: unified metrics tree: controller counters + per-channel substrate
        #: counters, consumed generically by the system-level registry
        self.metrics = MetricRegistry()
        self.metrics.register("controller", self.stats)
        self.metrics.register("substrate", self.device.metrics)

    # ------------------------------------------------------------------ admission

    def submit(self, req: CacheRequest) -> None:
        """Accept an L2-level request (read / writeback / refill)."""
        now = self.sim.now
        req.arrival = now
        st = self.stats
        rtype = req.rtype
        if rtype == _READ:
            st.reads_submitted += 1
            if req.addr in self._pending_writes:
                # Write-buffer forwarding: the freshest copy of this block
                # sits in a pending writeback/refill; serve it directly.
                st.forwarded_reads += 1
                req.hit = True
                self.sim.after(self.cfg.queues.forward_latency_ps,
                               self._read_done, req)
                return
            if self.mapi is not None:
                if self.mapi.predict_miss(req.core_id, req.pc):
                    # MAP-I: probe main memory in parallel with the tag read.
                    req.pred_miss = req.probing = True
                    st.memory_fetches += 1
                    self.mainmem.fetch(req.addr, self._mem_fetch_done, req)
        elif rtype == _WRITEBACK:
            st.writebacks_submitted += 1
            self._pending_writes[req.addr] = req
        else:
            st.refills_submitted += 1
            self._pending_writes[req.addr] = req

        first = self.translator.initial_access(req)
        ch = first.channel
        # A new request waits in the FIFO of the queue it is routed to;
        # _admit later pushes it there without routing it again.
        if self._route(first):
            q, waitq = self.write_q[ch], self.waiting_w[ch]
        else:
            q, waitq = self.read_q[ch], self.waiting_r[ch]
        if q.has_room() and not waitq:
            q.push(first)
            self._kick(ch)
        else:
            waitq.append(first)

    def _enqueue(self, access: Access) -> None:
        """Queue a continuation access (reserved slot: never waits).

        Only completions call this, for an access on the completing
        access's channel (a set's tag and data blocks share one row), so
        the completion's closing kick covers it."""
        (self.write_q if self._route(access) else self.read_q)[
            access.channel].push(access)

    def _admit(self, ch: int) -> None:
        """Move waiting requests into queues as slots free up (FIFO per
        queue); called only when a wait FIFO is non-empty."""
        moved = False
        for q, w in ((self.read_q[ch], self.waiting_r[ch]),
                     (self.write_q[ch], self.waiting_w[ch])):
            while w and q.has_room():
                q.push(w.popleft())
                moved = True
        if moved:
            self._kick(ch)

    # ------------------------------------------------------------------ scheduling

    def _kick(self, ch: int) -> None:
        """Arrange a scheduling decision for channel ``ch`` at the current
        time, unless one is pending or the in-flight window is full.

        A full window needs no decision: the completion that frees a slot
        takes one (:meth:`_access_complete`).  So :meth:`submit`,
        :meth:`_admit` and :meth:`flush_all` schedule a decision here
        only when it can issue; completions take theirs through
        :meth:`~repro.sim.engine.Simulator.asap`."""
        if (self._decision_pending[ch]
                or self._in_flight[ch] >= self._issue_window):
            return
        self._decision_pending[ch] = True
        self.sim.at(self.sim.now, self._decide, ch)

    def _decide(self, ch: int) -> None:
        """Issue accesses until the in-flight window fills or nothing is ready.

        Each iteration re-runs the design's selection against the updated
        queue/bank/bus state, so priorities are re-evaluated at every
        issue.  Bursts serialize on the channel bus in issue order; bank
        preparations of distinct banks overlap in flight.
        """
        self._decision_pending[ch] = False
        # The window is usually full again after one issue, so the loop
        # runs about once per call: nothing is hoisted into locals but
        # the in-flight count, which no completion can move inside it.
        in_flight = self._in_flight[ch]
        window = self._issue_window
        now = self.sim.now
        while in_flight < window:
            picked = self._select(ch)
            if picked is None:
                break
            access, queue = picked
            queue.remove(access)

            # Observable read-priority-inversion accounting: an LR-class
            # bus read issued while a PR-class read waits on this channel.
            if access.priority == _LR and self.read_q[ch].classes[_PR]:
                self.stats.read_priority_inversions += 1

            _start, end = self.device.channels[ch].issue(
                access.rank, access.bank, access.row, access.is_write, now)
            in_flight += 1
            self.sched[ch].on_served(access.core_id)
            if self._issue_hook is not None:
                self._issue_hook(access)
            self.sim.at(end, self._access_complete, access)
            if self.waiting_r[ch] or self.waiting_w[ch]:
                self._in_flight[ch] = in_flight     # _admit's kick reads it
                self._admit(ch)
        self._in_flight[ch] = in_flight

    # -- write-flush state machine -------------------------------------------------

    def _reads_preempt(self, ch: int) -> bool:
        """Are there reads that should preempt an opportunistic write drain?

        Overridden by DCA: its held LRs are deliberately *not* preemptive
        (they are background work, like the writes themselves).
        """
        return self.read_q[ch].size > 0

    def _continue_opportunistic(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """Keep an in-progress idle-time write drain going (called only
        while one is in progress).

        The drain continues to the low watermark; after the minimum batch
        has amortized the turnaround pair, arriving reads preempt it.
        """
        wq = self.write_q[ch]
        if (wq.size
                and (self.draining or wq.occupancy > self._low_wm)
                and (self._opp_batch[ch]
                     < self.cfg.queues.opportunistic_min_batch
                     or not self._reads_preempt(ch))):
            picked = self._pick_write(ch)
            if picked is not None:
                self._opp_batch[ch] += 1
                return picked
        self._opp_flushing[ch] = False
        return None

    def flush_all(self) -> None:
        """Drain every queued access regardless of watermarks.

        For end-of-simulation and tests: the passive write policy otherwise
        (correctly) parks writes below the low watermark forever when no
        further traffic arrives.  Run the simulator after calling this.
        """
        self.draining = True
        for ch in range(self.cfg.org.channels):
            self._kick(ch)

    def _pick_write(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        wq = self.write_q[ch]
        a = self.sched[ch].pick_banked(wq.classes,
                                       self.device.channels[ch], self.sim.now)
        return (a, wq) if a is not None else None

    def _pick_read(self, ch: int,
                   view: Sequence[ClassBuckets]) -> Optional[tuple[Access, AccessQueue]]:
        """Select from the read queue; ``view`` is a tuple of bucket
        dicts over its candidates (see ``repro.core.queues``)."""
        rq = self.read_q[ch]
        a = self.sched[ch].pick_banked(view, self.device.channels[ch],
                                       self.sim.now)
        return (a, rq) if a is not None else None

    # -- design hooks ---------------------------------------------------------------

    def _route(self, access: Access) -> bool:
        """Which queue holds this access: True for the write queue, False
        for the read queue.  Called once per access."""
        raise NotImplementedError

    def _select(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """Pick the next access to issue on channel ``ch`` (or None).

        A forced write flush first, then an idle-time drain in progress,
        then a read (:meth:`_select_read`); with no read to serve, writes
        drain opportunistically above the low watermark (the paper's
        two-threshold passive scheme).  In end-of-run ``draining`` mode
        the watermark is ignored so residual writes empty out.
        """
        wq = self.write_q[ch]
        size = wq.size
        occupancy = size / wq.capacity      # wq.occupancy, inline
        flushing = self.flushing
        # The flush watermarks: leave at (or below) the low one, enter a
        # forced flush at the high one.
        if flushing[ch] and (not size or occupancy <= self._low_wm):
            flushing[ch] = False
        if not flushing[ch] and occupancy >= self._high_wm:
            flushing[ch] = True
            self.stats.forced_flushes += 1
        if flushing[ch]:
            picked = self._pick_write(ch)
            if picked is not None:
                return picked
            flushing[ch] = False  # queue emptied mid-flush
        if self._opp_flushing[ch]:
            picked = self._continue_opportunistic(ch)
            if picked is not None:
                return picked
        picked = self._select_read(ch)
        if picked is not None:
            return picked
        if size and (self.draining or occupancy > self._low_wm):
            # No serviceable read this slot: begin an idle-time write
            # drain (the paper's second flush trigger).
            picked = self._pick_write(ch)
            if picked is not None:
                self.stats.opportunistic_flushes += 1
                self._opp_flushing[ch] = True
                self._opp_batch[ch] = 1
            return picked
        return None

    def _select_read(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """The read slot of :meth:`_select`: any queued read, in
        scheduler order."""
        return self._pick_read(ch, self.read_q[ch].classes)

    # ------------------------------------------------------------------ completion

    def _access_complete(self, access: Access) -> None:
        ch = access.channel
        self._in_flight[ch] -= 1
        req = access.request
        role = access.role
        if role == _TAG_READ:
            self._tag_read_done(req)
        elif role == _DATA_READ:
            if req.rtype == _READ:
                self._read_done(req)
            else:
                self._victim_read_done(req)
        else:  # TAG_WRITE / DATA_WRITE
            if access.critical:
                req.accesses_left -= 1
                if req.accesses_left == 0:
                    self._write_request_done(req)
        # The closing kick (_kick, inline; this completion freed a slot).
        # It is this event's last action, so the engine may run the
        # decision at once rather than queue it (Simulator.asap).
        pending = self._decision_pending
        if not pending[ch]:
            pending[ch] = True
            self.sim.asap(self._decide, ch)

    def _tag_read_done(self, req: CacheRequest) -> None:
        outcome = self.translator.after_tag_read(req)
        st = self.stats
        if req.rtype == _READ:
            if self.mapi is not None:
                self.mapi.update(req.core_id, req.pc, outcome.hit,
                                 req.pred_miss)
            if outcome.hit:
                st.read_hits += 1
                if req.probing:
                    st.wasted_fetches += 1  # memory data must be discarded
                if not outcome.next_accesses:
                    # Direct-mapped: the TAD read carried the data.
                    self._read_done(req)
                else:
                    for a in outcome.next_accesses:
                        self._enqueue(a)
            else:
                st.read_misses += 1
                if req.probing:
                    if req.mem_data_ready:
                        # Fetch already returned; deliver + refill now.
                        self._complete_missed_read(req)
                    # else: the in-flight fetch will complete the request.
                else:
                    st.memory_fetches += 1
                    self.mainmem.fetch(req.addr, self._mem_fetch_done, req)
            return

        # Writeback / refill.
        if outcome.hit:
            st.writeback_hits += 1
        else:
            st.writeback_misses += 1
        req.accesses_left = len(outcome.next_accesses)
        if outcome.victim_read is not None:
            # Dirty victim (set-assoc): read its data before overwriting.
            req.pending_writes = outcome.next_accesses
            req.victim_addr = outcome.victim_mem_write
            self._enqueue(outcome.victim_read)
        else:
            if outcome.victim_mem_write is not None:
                # Direct-mapped: victim data arrived with the TAD read.
                st.victim_mem_writes += 1
                self.mainmem.write(outcome.victim_mem_write)
            for a in outcome.next_accesses:
                self._enqueue(a)

    def _victim_read_done(self, req: CacheRequest) -> None:
        """RDw finished: ship the victim to memory, then do the writes."""
        victim = req.victim_addr
        if victim is not None:
            self.stats.victim_mem_writes += 1
            self.mainmem.write(victim)
        for a in req.pending_writes:
            self._enqueue(a)

    def _mem_fetch_done(self, req: CacheRequest) -> None:
        """Main-memory data arrived for a (predicted or actual) read miss."""
        if req.hit is None:
            # Tag check still pending; remember the data is here.
            req.mem_data_ready = True
            return
        if req.hit:
            # Predicted miss but the tags said hit — the fetch was wasted
            # (counted at tag-read completion; nothing more to do).
            return
        self._complete_missed_read(req)

    def _complete_missed_read(self, req: CacheRequest) -> None:
        """Deliver miss data to the L2 and spawn the refill."""
        if req.done_time >= 0:
            return
        self._read_done(req)
        refill = CacheRequest(_REFILL, req.addr, req.core_id, pc=req.pc)
        self.submit(refill)

    def _read_done(self, req: CacheRequest) -> None:
        if req.done_time >= 0:
            return
        now = self.sim.now
        req.done_time = now
        st = self.stats
        st.reads_done += 1
        st.read_latency_sum_ps += now - req.arrival
        if req.on_done is not None:
            req.on_done(req)

    def _write_request_done(self, req: CacheRequest) -> None:
        req.done_time = self.sim.now
        if self._pending_writes.get(req.addr) is req:
            del self._pending_writes[req.addr]
        if req.on_done is not None:
            req.on_done(req)

    # ------------------------------------------------------------------ reporting

    def reset_stats(self) -> None:
        """Zero controller + substrate counters (warm-up boundary).

        Deliberately narrower than ``self.metrics.reset()``: the system
        harness mounts further groups into this registry, some of which
        (MAP-I, Lee) accumulate across the warm-up boundary.
        """
        self.stats.reset()
        self.device.metrics.reset()
        self.array.reset_counters()

    def queues_empty(self) -> bool:
        return (all(not len(q) for q in self.read_q)
                and all(not len(q) for q in self.write_q)
                and all(not w for w in self.waiting_r)
                and all(not w for w in self.waiting_w))
