"""Bounded L2 write buffer between dirty evictions and the controller.

Dirty L2 victims (and Lee et al.'s DRAM-aware writeback batches) used to
be fire-and-forget: ``System._emit_writebacks`` submitted them straight
into the controller's write queues.  This buffer sits in between and
shapes *when* writebacks enter the controller, the way a real LLC write
buffer does:

* ``depth == 0`` (default) — unbounded pass-through: every push submits
  immediately, bit-identical to the pre-buffer behaviour.
* ``policy == "full"`` — drain-when-full: writebacks accumulate until
  the buffer is full, then the whole buffer bursts to the controller
  (amortising write-mode turnarounds maximally).
* ``policy == "watermark"`` — once occupancy reaches the high
  watermark, drain FIFO down to the low watermark (the classic
  hysteresis the controller itself uses for its write queues).
* ``policy == "idle"`` — drain the buffer after ``idle_ps`` with no new
  arrivals (plus a drain-one backstop when a push finds it full).

A demand read to a buffered block flushes that entry to the controller
first (:meth:`flush`), where the existing ``_pending_writes`` forwarding
then serves the read from the write data — the freshest copy is never
lost, and ``forward_flushes`` counts how often it mattered.

Occupancy is accounted as an exact time integral
(``occupancy_integral_ps`` = sum of occupancy x picoseconds), restarted
at the warm-up boundary like the controller queues' integrals.
"""

from __future__ import annotations

from typing import Callable

from repro.config import WriteBufferConfig
from repro.metrics.registry import MetricGroup, derived
from repro.sim.engine import Simulator


class WriteBufferStats(MetricGroup):
    COUNTERS = ("enqueued", "coalesced", "drained", "forward_flushes",
                "drain_stalls", "idle_drains", "occupancy_integral_ps")

    @derived
    def buffered(self) -> int:
        """Pushes that actually waited in the buffer (not passed through)."""
        return self.enqueued - self.coalesced


class L2WriteBuffer:
    """FIFO write buffer with pluggable drain policies.

    ``submit`` is the downstream sink (``System._submit_writeback``).
    """

    def __init__(self, sim: Simulator, cfg: WriteBufferConfig,
                 submit: Callable[[int, int], None]):
        self.sim = sim
        self.cfg = cfg
        self._submit = submit
        self.depth = cfg.depth
        self.policy = cfg.policy
        self._idle_ps = cfg.idle_ps
        # Integer thresholds fixed at construction: watermark hysteresis
        # must not depend on float rounding at drain time.
        self._high = max(1, int(cfg.depth * cfg.high_watermark))
        self._low = int(cfg.depth * cfg.low_watermark)
        #: addr -> core_id; dict insertion order is the FIFO order
        self._entries: dict[int, int] = {}
        self._last_t = 0
        self._last_push = 0
        self._idle_scheduled = False
        self.stats = WriteBufferStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- time accounting --------------------------------------------------------

    def _account(self, now: int) -> None:
        """Integrate occupancy up to ``now`` (call before any change)."""
        self.stats.occupancy_integral_ps += (
            len(self._entries) * (now - self._last_t))
        self._last_t = now

    def reset_accounting(self, now: int) -> None:
        """Warm-up boundary: zero counters, restart the integral clock."""
        self.stats.reset()
        self._last_t = now

    # -- operations -------------------------------------------------------------

    def push(self, addr: int, core_id: int) -> None:
        """Accept one dirty-eviction writeback for ``addr``."""
        self.stats.enqueued += 1
        if self.depth == 0:            # unbounded pass-through (default)
            self.stats.drained += 1
            self._submit(addr, core_id)
            return
        now = self.sim.now
        if addr in self._entries:
            # Same block evicted dirty again while its writeback still
            # waits: one write to the array suffices.
            self.stats.coalesced += 1
            self._last_push = now
            return
        if len(self._entries) >= self.depth:
            self.stats.drain_stalls += 1
            self._account(now)
            # Drain-when-full empties the whole buffer in one burst; the
            # other policies free just enough room to admit the push.
            self._drain_to(0 if self.policy == "full" else self.depth - 1)
        self._account(now)
        self._entries[addr] = core_id
        self._last_push = now
        if self.policy == "watermark" and len(self._entries) >= self._high:
            self._drain_to(self._low)
        elif self.policy == "idle" and not self._idle_scheduled:
            self._idle_scheduled = True
            self.sim.at(now + self._idle_ps, self._idle_check, None)

    def flush(self, addr: int) -> bool:
        """Submit the buffered writeback for ``addr`` now, if present.

        Called on the demand-read miss path: the controller's pending-
        write forwarding then serves the read from the freshest data.
        """
        core_id = self._entries.pop(addr, None) if self._entries else None
        if core_id is None:
            return False
        self._account(self.sim.now)
        self.stats.forward_flushes += 1
        self.stats.drained += 1
        self._submit(addr, core_id)
        return True

    def _drain_to(self, target: int) -> None:
        """Submit oldest entries until at most ``target`` remain."""
        entries = self._entries
        while len(entries) > target:
            addr = next(iter(entries))
            core_id = entries.pop(addr)
            self.stats.drained += 1
            self._submit(addr, core_id)

    def _idle_check(self, _arg: object) -> None:
        now = self.sim.now
        if not self._entries:
            self._idle_scheduled = False
            return
        quiet_at = self._last_push + self._idle_ps
        if now < quiet_at:
            # A push landed since this check was scheduled; try again
            # when the current quiet window would complete.
            self.sim.at(quiet_at, self._idle_check, None)
            return
        self._account(now)
        self.stats.idle_drains += 1
        self._drain_to(0)
        self._idle_scheduled = False

