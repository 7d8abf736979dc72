"""Off-chip main memory (paper Table II: 50 ns latency, 2 GHz 64-bit bus).

The paper models main memory below the DRAM cache as a flat 50 ns access
behind the off-chip bus; contention for that bus is the only queuing
effect.  A 64 B block occupies the 64-bit/2 GHz bus for 4 ns, so the model
is a single-server queue: ``start = max(now, bus_free)``, data returns at
``start + 50 ns``.

That flat model is :class:`MainMemory`, the default
(``mainmem.model="flat"``).  :class:`BankedMainMemory`
(``mainmem.model="banked"``) replaces the single-server queue with a real
banked organisation: a :class:`~repro.dram.device.DRAMDevice`, the same
channels-plus-address-mapper the stacked DRAM cache runs on, over its
own :class:`~repro.config.DRAMOrganization` and DDR3-1600-style
timings — so bank conflicts, row-buffer locality, bus turnarounds and
rank-to-rank switches (``tCS``) below the cache become visible.  Both
models expose the identical interface (``fetch``/``write``/``stats``/
``reset_stats``), and the controller
is built against :data:`AnyMainMemory` through :func:`make_mainmem`.

Reads carry a completion callback (the DRAM-cache controller delivers the
data to the L2 and spawns a refill); writes (dirty victims leaving the
DRAM cache) are fire-and-forget but still consume bus slots.
"""

from __future__ import annotations

from typing import Any, Callable, Union

from repro.config import MainMemoryConfig
from repro.dram.device import DRAMDevice
from repro.metrics.registry import MetricGroup, derived
from repro.sim.engine import Simulator


class MainMemoryStats(MetricGroup):
    """Model-independent main-memory counters.

    Shared by the flat and banked models so the ``mainmem`` metric key
    keeps one schema; the banked model additionally publishes per-channel
    substrate groups in its own registry (mounted as ``mainmem_dev``).
    The ``*_bus_wait_ps`` counters measure queuing delay — time between
    the request and its burst/bus-slot start — which is the contention
    signal both models share.
    """

    COUNTERS = (
        "reads",
        "writes",
        "bus_busy_ps",
        "read_latency_sum_ps",
        "write_latency_sum_ps",
        "read_bus_wait_ps",
        "write_bus_wait_ps",
    )

    @derived
    def mean_read_latency_ps(self) -> float:
        return self.read_latency_sum_ps / self.reads if self.reads else 0.0

    @derived
    def mean_write_latency_ps(self) -> float:
        return self.write_latency_sum_ps / self.writes if self.writes else 0.0


class MainMemory:
    """Flat-latency memory behind a bandwidth-limited off-chip bus."""

    __slots__ = ("sim", "cfg", "_bus_free", "stats")

    def __init__(self, sim: Simulator, cfg: MainMemoryConfig):
        self.sim = sim
        self.cfg = cfg
        self._bus_free = 0
        self.stats = MainMemoryStats()

    def _claim_bus(self) -> int:
        now = self.sim.now
        start = max(now, self._bus_free)
        self._bus_free = start + self.cfg.bus_occupancy_ps
        self.stats.bus_busy_ps += self.cfg.bus_occupancy_ps
        return start

    def fetch(self, addr: int, on_done: Callable[[Any], None], arg: Any = None) -> int:
        """Read one block; ``on_done(addr)`` fires when data returns.

        ``arg`` replaces the address as the callback payload when given
        (``on_done(arg)``), so callers can route the completion to a
        request object with one shared bound method instead of building
        a closure per fetch.

        Returns the completion time (useful for tests).
        """
        now = self.sim.now
        start = self._claim_bus()
        done = start + self.cfg.latency_ps
        self.stats.reads += 1
        self.stats.read_latency_sum_ps += done - now
        self.stats.read_bus_wait_ps += start - now
        self.sim.at(done, on_done, addr if arg is None else arg)
        return done

    def write(self, addr: int) -> int:
        """Write one block (dirty victim); consumes a bus slot only."""
        now = self.sim.now
        start = self._claim_bus()
        done = start + self.cfg.latency_ps
        self.stats.writes += 1
        self.stats.write_latency_sum_ps += done - now
        self.stats.write_bus_wait_ps += start - now
        return done

    def reset_stats(self) -> None:
        self.stats.reset()


class BankedMainMemory(DRAMDevice):
    """Banked multi-channel/multi-rank main memory behind the Substrate.

    A :class:`~repro.dram.device.DRAMDevice` over ``cfg.timings``
    (DDR3-1600 by default, including the ``tCS`` rank-to-rank bus
    turnaround), ``cfg.org`` and ``cfg.substrate`` — the same
    burst/command channel models the DRAM cache runs on — plus the
    main-memory front end (``fetch``/``write``).  Block addresses are
    decoded by the device's :attr:`mapper` over ``cfg.org``, so
    the interleave policy below the cache is sweepable independently of
    the cache's own.

    Accesses are issued synchronously at ``sim.now`` — the substrate's
    bus state provides the single-server queuing the flat model got from
    ``bus_free``, and completions are scheduled at the burst end.
    ``stats`` stays a plain :class:`MainMemoryStats` (same ``mainmem``
    schema as the flat model); per-channel substrate counters live in
    the device's :attr:`metrics` (``ch0``, ``ch1``, ...; per-rank groups
    when the channel model carries them), which the system mounts as
    ``mainmem_dev``.
    """

    __slots__ = ("sim", "cfg", "stats")

    def __init__(self, sim: Simulator, cfg: MainMemoryConfig):
        super().__init__(cfg.timings, cfg.org, substrate=cfg.substrate)
        self.sim = sim
        self.cfg = cfg
        self.stats = MainMemoryStats()

    def fetch(self, addr: int, on_done: Callable[[Any], None], arg: Any = None) -> int:
        """Read one block through its bank; same contract as the flat model."""
        now = self.sim.now
        channel, rank, bank, row, _col, _gb = self.mapper.coordinates(addr)
        start, done = self.channels[channel].issue(rank, bank, row, False, now)
        self.stats.reads += 1
        self.stats.read_latency_sum_ps += done - now
        self.stats.read_bus_wait_ps += start - now
        self.sim.at(done, on_done, addr if arg is None else arg)
        return done

    def write(self, addr: int) -> int:
        """Write one block (dirty victim) through its bank."""
        now = self.sim.now
        channel, rank, bank, row, _col, _gb = self.mapper.coordinates(addr)
        start, done = self.channels[channel].issue(rank, bank, row, True, now)
        self.stats.writes += 1
        self.stats.write_latency_sum_ps += done - now
        self.stats.write_bus_wait_ps += start - now
        return done

    def reset_stats(self) -> None:
        self.stats.reset()
        super().reset_stats()


AnyMainMemory = Union[MainMemory, BankedMainMemory]


def make_mainmem(sim: Simulator, cfg: MainMemoryConfig) -> AnyMainMemory:
    """Build the main-memory model ``cfg.model`` selects."""
    if cfg.model == "banked":
        return BankedMainMemory(sim, cfg)
    return MainMemory(sim, cfg)
