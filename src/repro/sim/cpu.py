"""Event-driven out-of-order core model.

The paper simulates 8-wide OoO x86 cores with 192-entry ROBs in gem5.  For
a DRAM-cache *controller* study the core's role is to generate a request
stream with the right coupling to memory latency:

* **reads are critical** — a core can run ahead of an outstanding load by
  at most the ROB depth, and can sustain at most a bounded number of
  outstanding misses (MLP); past either limit it stalls until data
  returns;
* **writes are not** — stores retire through store buffers and dirty
  writebacks happen behind the core's back.

This model captures exactly that closed loop without per-cycle ticking:
non-memory instructions retire at ``width`` per cycle (so a gap of *g*
instructions costs ``g/width`` cycles), memory operations are points on
the timeline, and the core advances from one memory operation to the next
in a single event.  L2 hits charge a configurable un-hidable fraction of
the L2 latency; misses interact with the blocking rules above.

Traces come from :mod:`repro.workloads.generator` as infinite iterators of
``(gap_instructions, address, is_write, pc)`` tuples; the core counts
retired instructions and records the time it crosses its warm-up and
finish budgets, from which per-core IPC is computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import CPUConfig
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.system import System
    from repro.workloads.cursor import TraceCursor

#: one trace record: (gap_instructions, address, is_write, pc)
TraceOp = tuple[int, int, bool, int]

#: an instruction count no core reaches (budgets all crossed)
_NEVER = 1 << 62

#: outcomes of System.mem_access
L2_HIT = 0
MISS = 1
MSHR_FULL = 2


class Core:
    """One core: trace consumption + ROB/MLP blocking rules."""

    __slots__ = ("sim", "core_id", "cfg", "system", "trace",
                 "icount", "_next_op", "_retry_op", "outstanding",
                 "_token", "blocked", "_resume_base",
                 "budget", "warmup_at", "finish_time", "warmup_time",
                 "_next_budget",
                 "warmup_icount", "loads_issued", "stores_issued",
                 "stall_blocked_ps", "_blocked_since",
                 "_width", "_cycle_ps", "_max_misses", "_rob")

    def __init__(self, sim: Simulator, core_id: int, cfg: CPUConfig,
                 trace: "TraceCursor", system: "System"):
        self.sim = sim
        self.core_id = core_id
        self.cfg = cfg
        self.system = system
        self.trace = trace
        # Config scalars flattened: _step/_gap_ps run once per memory op.
        self._width = cfg.width
        self._cycle_ps = cfg.cycle_ps
        self._max_misses = cfg.max_outstanding_misses
        self._rob = cfg.rob_entries
        self.icount = 0
        self._next_op: Optional[TraceOp] = None
        self._retry_op: Optional[TraceOp] = None
        self.outstanding: dict[int, int] = {}  # load token -> inst index
        self._token = 0
        self.blocked = False
        self._resume_base = 0
        self.budget = 0
        self.warmup_at = 0
        #: the least budget not yet crossed (see _check_budgets)
        self._next_budget = 0
        self.finish_time: Optional[int] = None
        self.warmup_time: Optional[int] = None
        self.warmup_icount = 0
        self.loads_issued = 0
        self.stores_issued = 0
        self.stall_blocked_ps = 0
        self._blocked_since = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self, warmup_insts: int, measure_insts: int) -> None:
        """Begin consuming the trace; budgets control IPC bookkeeping."""
        self.warmup_at = warmup_insts
        self.budget = warmup_insts + measure_insts
        self._next_budget = warmup_insts
        self._next_op = next(self.trace)
        self._schedule_next(self.sim.now)

    # -- timing helpers ----------------------------------------------------------

    def _gap_ps(self, gap_instructions: int) -> int:
        """Retire time of a gap of non-memory instructions + the memory op.

        Billing the op itself keeps IPC bounded by the core width.
        """
        cycles = (gap_instructions + 1) / self._width
        return max(1, round(cycles * self._cycle_ps))

    def _schedule_next(self, base_time: int) -> None:
        sim = self.sim
        nxt = self._next_op
        assert nxt is not None   # always primed by start()/_step()
        gap_ps = max(1, round((nxt[0] + 1) / self._width
                              * self._cycle_ps))
        sim.at(max(base_time + gap_ps, sim.now), self._step, None)

    # -- the main loop -------------------------------------------------------------

    def _step(self, _arg: object) -> None:
        retrying = False
        if self._retry_op is not None:
            retrying = True
            op = self._retry_op
            self._retry_op = None
        else:
            op = self._next_op
            assert op is not None   # start() primed the stream
            self._next_op = next(self.trace)
            self.icount += op[0] + 1
            if self.icount >= self._next_budget:
                self._check_budgets()
        _gap, addr, is_write, pc = op
        # ``retrying`` tells the system this op already stalled once: the
        # MSHR must not count a second full-stall for it.
        outcome, stall_ps = self.system.mem_access(self, addr, is_write, pc,
                                                   retrying=retrying)
        now = self.sim.now

        if outcome == MSHR_FULL:
            # The shared L2 has no MSHR left: hold this op and retry when
            # the system signals a free slot.
            self._retry_op = op
            self._mark_blocked(now)
            self.system.wait_for_mshr(self)
            return

        if is_write:
            self.stores_issued += 1
        else:
            self.loads_issued += 1
            if outcome == MISS:
                self._token += 1
                self.outstanding[self._token] = self.icount
                self.system.register_load(self, self._token)

        base = now + stall_ps
        if self._should_block():
            self._mark_blocked(now)
            self._resume_base = base
            return
        self._schedule_next(base)

    def _check_budgets(self) -> None:
        if self.warmup_time is None and self.icount >= self.warmup_at:
            self.warmup_time = self.sim.now
            self.warmup_icount = self.icount
            self.system.core_warmed(self)
        if self.finish_time is None and self.icount >= self.budget:
            self.finish_time = self.sim.now
            self.system.core_finished(self)
        # The next count that can cross one: warm-up, finish, then none.
        self._next_budget = (self.warmup_at if self.warmup_time is None
                             else self.budget if self.finish_time is None
                             else _NEVER)

    # -- blocking rules -------------------------------------------------------------

    def _should_block(self) -> bool:
        o = self.outstanding
        if len(o) >= self._max_misses:
            return True
        if o and self.icount - min(o.values()) >= self._rob:
            return True
        return False

    def _mark_blocked(self, now: int) -> None:
        if not self.blocked:
            self.blocked = True
            self._blocked_since = now

    def _unblock(self, resume_base: int) -> None:
        now = self.sim.now
        self.blocked = False
        self.stall_blocked_ps += now - self._blocked_since
        if self._retry_op is not None:
            self.sim.at(now, self._step, None)
        else:
            self._schedule_next(max(resume_base, now))

    # -- completion callbacks ---------------------------------------------------------

    def load_done(self, token: int) -> None:
        """A load miss this core issued has returned."""
        self.outstanding.pop(token, None)
        if self.blocked and self._retry_op is None and not self._should_block():
            self._unblock(self._resume_base)

    def mshr_freed(self) -> None:
        """The shared L2 freed an MSHR; retry the held op."""
        if self.blocked and self._retry_op is not None:
            self._unblock(self.sim.now)

    # -- reporting ---------------------------------------------------------------------

    def measured_ipc(self) -> float:
        """IPC over the measurement window (post-warm-up)."""
        if self.finish_time is None or self.warmup_time is None:
            raise RuntimeError(f"core {self.core_id} did not finish")
        elapsed = self.finish_time - self.warmup_time
        insts = self.budget - self.warmup_icount
        if elapsed <= 0:
            return float("inf")
        cycles = elapsed / self.cfg.cycle_ps
        return insts / cycles
