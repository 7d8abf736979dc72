"""A DRAM channel: banks behind one shared bidirectional data bus.

The data bus services one burst (tBURST) at a time and has a *direction*
(read or write).  Switching direction is a **turnaround**: a read burst may
not start earlier than tWTR after the last write burst ended, and a write
burst may not start earlier than tRTW after the last read burst ended
(JEDEC-style accounting collapsed to burst granularity).  Frequent
turnarounds waste bus time, which is precisely the failure mode of the ROD
controller design the paper analyses.

Issue model (shared by every controller design):

* the scheduler commits to an access at a decision time ``now``;
* the target bank computes its earliest CAS (opening/closing rows as
  needed, overlapping row preparation with the in-flight burst);
* the burst is placed at ``max(bank CAS + tCAS, bus free, turnaround
  constraint)``;
* the bank and bus state are updated and the completion time returned.

Each rule is stated once: ``issue`` states the bank's CAS rule and
``_place_and_commit`` the bus rule.  ``estimate_burst_start`` has no
statement of its own — it runs ``issue`` on a scratch copy.

Bank state is stored **struct-of-arrays**: five parallel ``list[int]``
columns (``open_rows`` with ``-1`` = closed, ``act_times``, ``ready_cas``,
``ready_pre``, ``ready_act``), one slot per bank, so the issue hot
path is list index arithmetic with no per-bank objects.  These columns
are the only bank state; the lockstep tests check them against an
independent per-bank object model kept under ``tests/``.  The columns are
mutated strictly in place — never rebound — so a reference taken to one
(the schedulers read ``open_rows`` directly) stays live.

This class is the ``fidelity="burst"`` substrate model — the default, and
the hot path every controller comparison runs on.  It implements the
:class:`repro.dram.substrate.Substrate` protocol; the command-level model
(:class:`repro.dram.command.CommandChannel`) subclasses it, layering rank
constraints and refresh on the same bus/statistics core.
"""

from __future__ import annotations

import copy
from typing import ClassVar

from repro.config import DRAMOrganization, DRAMTimings
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from repro.dram.stats import ChannelStats

__all__ = ["Channel"]

# Bus direction states.
_DIR_NONE = 0
_DIR_READ = 1
_DIR_WRITE = 2


class Channel:
    """One channel: ``ranks_per_channel * banks_per_rank`` banks + data bus."""

    __slots__ = ("timings", "org", "nbanks", "open_rows", "act_times",
                 "ready_cas", "ready_pre", "ready_act",
                 "bus_free", "bus_dir", "stats",
                 "_last_read_end", "_last_write_end", "_last_rank", "_bpr",
                 "_tCAS", "_tRCD", "_tRP", "_tRAS", "_tRTP", "_tWR",
                 "_tBURST", "_tRTW", "_tWTR", "_tCS")

    #: substrate fidelity this model implements (see SubstrateConfig)
    fidelity: ClassVar[str] = "burst"

    def __init__(self, timings: DRAMTimings, org: DRAMOrganization,
                 stats: ChannelStats | None = None):
        self.timings = timings
        self.org = org
        # Timing scalars flattened into slots: every issue reads
        # several of them, and a slot load beats the two-hop dataclass
        # attribute chase in the inner loop.
        self._tCAS = timings.tCAS
        self._tRCD = timings.tRCD
        self._tRP = timings.tRP
        self._tRAS = timings.tRAS
        self._tRTP = timings.tRTP
        self._tWR = timings.tWR
        self._tBURST = timings.tBURST
        self._tRTW = timings.tRTW
        self._tWTR = timings.tWTR
        self._tCS = timings.tCS
        self._bpr = org.banks_per_rank
        nbanks = org.ranks_per_channel * org.banks_per_rank
        self.nbanks = nbanks
        # Struct-of-arrays bank state: parallel int columns, one slot per
        # bank.  ``-1`` encodes "no open row" (real row ids are >= 0, so
        # the schedulers' ``access.row == open_rows[i]`` hit test needs no
        # None check).  Mutated in place only, so outstanding references
        # to a column stay coherent.
        self.open_rows: list[int] = [-1] * nbanks
        self.act_times: list[int] = [0] * nbanks
        self.ready_cas: list[int] = [0] * nbanks
        self.ready_pre: list[int] = [0] * nbanks
        self.ready_act: list[int] = [0] * nbanks
        self.bus_free: int = 0          # end of the last burst
        self.bus_dir: int = _DIR_NONE
        self._last_read_end: int = 0
        self._last_write_end: int = 0
        self._last_rank: int = -1       # rank of the last burst (-1: none)
        # The counter group may be supplied by the owning device so the
        # same live object sits in its metrics registry.
        self.stats = stats if stats is not None else ChannelStats()

    # -- query ----------------------------------------------------------------

    def estimate_burst_start(self, rank: int, bank: int, row: int,
                             is_write: bool, now: int) -> int:
        """Burst start :meth:`issue` would commit now, on a scratch copy.

        Pure by construction: the copy absorbs every state and counter
        change, and the command model inherits it unchanged.  No
        scheduler calls it (they classify rows by ``open_rows``); it
        stays only until the perfbench tracer drops it from its entry
        points (ROADMAP item 1).
        """
        return copy.deepcopy(self).issue(rank, bank, row, is_write, now)[0]

    # -- commit ---------------------------------------------------------------

    def issue(self, rank: int, bank: int, row: int, is_write: bool,
              now: int) -> tuple[int, int]:
        """Commit an access; returns ``(burst_start, burst_end)``.

        ``burst_end`` is when read data has fully returned / write data has
        been fully transferred — the completion time a request state machine
        should wait on.
        """
        idx = rank * self._bpr + bank
        orow = self.open_rows[idx]
        if orow == row:
            state = ROW_HIT
            rc = self.ready_cas[idx]
            cas = now if now >= rc else rc
        elif orow < 0:
            state = ROW_CLOSED
            ra = self.ready_act[idx]
            cas = (now if now >= ra else ra) + self._tRCD
        else:
            state = ROW_CONFLICT
            rp = self.ready_pre[idx]
            cas = (now if now >= rp else rp) + self._tRP + self._tRCD
        return self._place_and_commit(idx, rank, row, cas, is_write, state)

    def _place_and_commit(self, idx: int, rank: int, row: int, cas: int,
                          is_write: bool, state: int) -> tuple[int, int]:
        """Place one burst for an earliest-CAS plan, commit it, count it.

        The one commit routine per burst, which both fidelities' ``issue``
        call once, and the only statement of the bus rule: bus
        constraints (direction turnaround, and a ``tCS`` gap when the
        burst targets a different rank than the last one — gem5's
        different-rank bus delay) fold into the start; the effective CAS
        is back-dated so bank bookkeeping (tRTP/tWR windows) lines up
        with the actual burst position on the bus; then the bus state and
        the issue counters (row class per direction, turnarounds, bus
        time, rank switches) advance.  ``state`` is the row state the
        caller classified *before* planning.  Returns
        ``(burst_start, burst_end)``.
        """
        s = self.stats
        bus_free = self.bus_free
        start = cas + self._tCAS
        if bus_free > start:
            start = bus_free
        if is_write:
            if self.bus_dir == _DIR_READ:
                s.turnarounds += 1
                gated = self._last_read_end + self._tRTW
                if gated > start:
                    start = gated
        elif self.bus_dir == _DIR_WRITE:
            s.turnarounds += 1
            gated = self._last_write_end + self._tWTR
            if gated > start:
                start = gated
        last_rank = self._last_rank
        if last_rank >= 0 and rank != last_rank:
            s.rank_switches += 1
            if self._tCS:
                gated = bus_free + self._tCS
                if gated > start:
                    start = gated
        self._last_rank = rank
        end = start + self._tBURST
        cas_time = start - self._tCAS
        if state != ROW_HIT:
            # We activated (and possibly precharged).  The ACT time is
            # bound by cas_time - tRCD; reconstruct it for tRAS accounting.
            self.act_times[idx] = cas_time - self._tRCD
            self.open_rows[idx] = row
            self.ready_cas[idx] = cas_time
        # CAS-to-CAS on the same row: back-to-back bursts are gated by the
        # channel bus, not the bank, in this model.
        pre_ok = self.act_times[idx] + self._tRAS
        alt = (end + self._tWR) if is_write else (cas_time + self._tRTP)
        if alt > pre_ok:
            pre_ok = alt
        ready_pre = self.ready_pre
        if pre_ok > ready_pre[idx]:
            ready_pre[idx] = pre_ok
        # Next ACT can only follow the next PRE; maintained when PRE happens
        # implicitly on a conflict.  Approximate by deriving from ready_pre.
        self.ready_act[idx] = ready_pre[idx] + self._tRP

        self.bus_free = end
        s.bus_busy_ps += self._tBURST
        if is_write:
            self.bus_dir = _DIR_WRITE
            self._last_write_end = end
            s.write_accesses += 1
            if state == ROW_HIT:
                s.write_row_hits += 1
            elif state == ROW_CLOSED:
                s.write_row_closed += 1
            else:
                s.write_row_conflicts += 1
        else:
            self.bus_dir = _DIR_READ
            self._last_read_end = end
            s.read_accesses += 1
            if state == ROW_HIT:
                s.read_row_hits += 1
            elif state == ROW_CLOSED:
                s.read_row_closed += 1
            else:
                s.read_row_conflicts += 1
        return start, end

    def reset_stats(self) -> None:
        self.stats.reset()
