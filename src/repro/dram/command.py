"""Command-level DRAM substrate: rank constraints and refresh.

The burst-granular :class:`~repro.dram.channel.Channel` collapses the DRAM
command pipeline to access granularity — fine for relative controller
comparisons, but unable to express the effects fidelity studies evaluate
(gem5's unified DRAM-cache controller model and TDRAM both run under
refresh and tFAW/tRRD rank throttling).  This module adds those
mechanisms behind the same substrate protocol, on the same open-page
row model:

**Per-rank ACT throttling** — every row activation is recorded in a
four-deep sliding window per rank; a new ACT may not issue earlier than
``tRRD`` after the previous ACT on the rank, nor earlier than ``tFAW``
after the fourth-most-recent one (the JEDEC four-activate window).
Stalls are counted per binding constraint (``rrd_stalls``/``faw_stalls``).

**Periodic refresh** — each rank owes one refresh every ``tREFI``
(``tREFI=0`` switches refresh off).  The model is *lazy and
deterministic*: refresh bookkeeping is brought up to date whenever an
access next commits on the rank, performing every refresh that fell due
in the meantime.  A refresh precharges all banks of the rank and blacks
the rank out for ``tRFC``; one that could not start at its due time (a
bank was still row-active past it) starts as soon as the rank can
precharge and is counted ``refreshes_postponed`` — the analogue of the
postpone/pull-in credit real controllers track.
ACTs that land inside a blackout are pushed past it (``refresh_stalls``).

All rank/bank timing state is struct-of-arrays like the base channel:
the refresh sync and the tFAW window checks operate on flat int lists
(the per-rank ACT history is a bounded ``list[int]``, oldest first).
``issue`` is the only statement of the rank-constrained CAS rule; the
inherited ``estimate_burst_start`` runs it on a scratch copy.

Determinism: lazy state advances happen only at commits, are monotone in
simulated time, and the simulator's ``now`` never decreases — so every
committed time and every counter is a pure function of the issue
sequence.  An estimate commits on a copy, never on the channel, so
running one between issues changes no outcome (pinned by
tests/test_substrate.py).
"""

from __future__ import annotations

from typing import ClassVar

from repro.config import DRAMOrganization, DRAMTimings
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT
from repro.dram.channel import Channel
from repro.dram.stats import CommandChannelStats, RankStats

#: ACTs admitted per rank inside one tFAW window (JEDEC four-activate).
FAW_DEPTH = 4


class CommandChannel(Channel):
    """Channel with command-level rank constraints and refresh."""

    __slots__ = ("rank_groups", "_act_history", "_refresh_due",
                 "_blackout_end", "_tREFI", "_tRFC", "_tRRD", "_tFAW")

    fidelity: ClassVar[str] = "command"

    def __init__(self, timings: DRAMTimings, org: DRAMOrganization,
                 stats: CommandChannelStats | None = None):
        if stats is None:
            stats = CommandChannelStats()
        elif not isinstance(stats, CommandChannelStats):
            # Fail at construction, not at the first refresh: a plain
            # ChannelStats lacks the command-level counters.
            raise TypeError(
                f"command-fidelity channels need CommandChannelStats, "
                f"got {type(stats).__name__}")
        super().__init__(timings, org, stats=stats)
        #: refresh is on exactly when tREFI > 0
        self._tREFI = timings.tREFI
        self._tRFC = timings.tRFC
        self._tRRD = timings.tRRD
        self._tFAW = timings.tFAW
        nranks = org.ranks_per_channel
        #: per-rank counter groups (activation pressure, refresh debt,
        #: throttling attribution); the owning device registers them in
        #: its metrics tree when the rank dimension is real (nranks > 1)
        self.rank_groups: list[RankStats] = [RankStats()
                                             for _ in range(nranks)]
        #: last FAW_DEPTH effective ACT times per rank (oldest first);
        #: bounded plain lists — trimmed on append — not deques, so the
        #: two-element window checks stay C-level list indexing
        self._act_history: list[list[int]] = [[] for _ in range(nranks)]
        #: next refresh due time per rank
        self._refresh_due = [timings.tREFI] * nranks
        #: end of the rank's current/most recent tRFC blackout
        self._blackout_end = [0] * nranks

    # ------------------------------------------------------------ lazy state

    def _sync_rank(self, rank: int, now: int) -> None:
        """Bring refresh state up to ``now`` for one rank.

        Monotone and idempotent: calling it again at the same (or a
        later) time never changes what an earlier call established.
        """
        if self._tREFI:
            due = self._refresh_due[rank]
            if due <= now:
                tREFI = self._tREFI
                tRFC = self._tRFC
                bpr = self._bpr
                base = rank * bpr
                lim = base + bpr
                open_rows = self.open_rows
                pres = self.ready_pre
                blackout = self._blackout_end[rank]
                s = self.stats
                rs = self.rank_groups[rank]
                while due <= now:
                    start = due if due >= blackout else blackout
                    # All banks must be precharged: a rank still row-active
                    # past the due time postpones the refresh behind its
                    # earliest legal PRE.
                    pre_ready = max(pres[base:lim])
                    if pre_ready > start:
                        start = pre_ready
                    if start == due:
                        # On time — and then so is every remaining owed
                        # refresh (tRFC < tREFI keeps each blackout inside
                        # its own interval, and ready_pre is never raised
                        # past it), so the tail collapses to arithmetic:
                        # a long-idle rank catches up in O(1) instead of
                        # O(elapsed / tREFI) loop iterations.
                        k = (now - due) // tREFI + 1
                        s.refreshes_issued += k
                        rs.refreshes_issued += k
                        due += k * tREFI
                        blackout = due - tREFI + tRFC
                        for i in range(base, lim):
                            open_rows[i] = -1
                            # ready_act is deliberately NOT raised (here
                            # or below): the blackout gates ACTs through
                            # _rank_act_bound, so the delay is attributed
                            # as refresh_stalls.
                            if blackout > pres[i]:
                                pres[i] = blackout
                        break
                    # Postponed for *any* reason — row activity or the
                    # previous refresh's blackout chaining past due.
                    s.refreshes_postponed += 1
                    s.refreshes_issued += 1
                    rs.refreshes_postponed += 1
                    rs.refreshes_issued += 1
                    blackout = start + tRFC
                    for i in range(base, lim):
                        open_rows[i] = -1
                        if blackout > pres[i]:
                            pres[i] = blackout
                    due += tREFI
                self._refresh_due[rank] = due
                self._blackout_end[rank] = blackout

    def _rank_act_bound(self, rank: int, act: int) -> tuple[int, int]:
        """Fold rank-level ACT constraints into a planned ACT time.

        Returns ``(constrained_act, binding)`` where ``binding`` is 0 for
        none, 1 for tRRD, 2 for tFAW, 3 for a refresh blackout (the
        *latest*-binding constraint wins the attribution).
        """
        binding = 0
        hist = self._act_history[rank]
        if hist:
            if self._tRRD:
                gated = hist[-1] + self._tRRD
                if gated > act:
                    act, binding = gated, 1
            if self._tFAW and len(hist) == FAW_DEPTH:
                gated = hist[0] + self._tFAW
                if gated > act:
                    act, binding = gated, 2
        blackout = self._blackout_end[rank]
        if blackout > act:
            act, binding = blackout, 3
        return act, binding

    def _earliest_cas(self, idx: int, rank: int, row: int,
                      now: int) -> tuple[int, int, int]:
        """Row class and rank-constrained CAS time, in one pass; returns
        ``(state, cas, binding)``.

        ``binding`` (see :meth:`_rank_act_bound`) is nonzero when a rank
        constraint, not the bank, delayed the activation.
        """
        orow = self.open_rows[idx]
        if orow == row:
            rc = self.ready_cas[idx]
            return ROW_HIT, (now if now >= rc else rc), 0
        if orow < 0:
            state = ROW_CLOSED
            ra = self.ready_act[idx]
            act = now if now >= ra else ra
        else:
            state = ROW_CONFLICT
            rp = self.ready_pre[idx]
            act = (now if now >= rp else rp) + self._tRP
        act, binding = self._rank_act_bound(rank, act)
        return state, act + self._tRCD, binding

    # ------------------------------------------------------------- protocol

    def issue(self, rank: int, bank: int, row: int, is_write: bool,
              now: int) -> tuple[int, int]:
        """Commit an access under rank constraints; ``(start, end)``.

        The lazy refresh sync runs only when it has work: a refresh has
        fallen due on the rank.
        """
        idx = rank * self._bpr + bank
        if self._tREFI and self._refresh_due[rank] <= now:
            self._sync_rank(rank, now)
        state, cas, binding = self._earliest_cas(idx, rank, row, now)
        start, end = self._place_and_commit(idx, rank, row, cas, is_write,
                                            state)

        if state != ROW_HIT:
            # Effective ACT: back-dated like the CAS, so the recorded
            # window is consistent with the bank's tRAS bookkeeping and
            # never earlier than the constrained plan.
            hist = self._act_history[rank]
            if len(hist) == FAW_DEPTH:
                del hist[0]
            hist.append(start - self._tCAS - self._tRCD)
            rs = self.rank_groups[rank]
            rs.acts += 1
            if binding == 1:
                self.stats.rrd_stalls += 1
                rs.rrd_stalls += 1
            elif binding == 2:
                self.stats.faw_stalls += 1
                rs.faw_stalls += 1
            elif binding == 3:
                self.stats.refresh_stalls += 1
                rs.refresh_stalls += 1
        return start, end

    def reset_stats(self) -> None:
        super().reset_stats()
        for rs in self.rank_groups:
            rs.reset()
