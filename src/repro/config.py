"""System configuration: the paper's Table II, expressed in integer picoseconds.

Every latency in the simulator is an integer number of picoseconds.  Using a
single integer timeline avoids floating-point drift when composing DRAM
timing constraints, and makes event ordering exact and deterministic.

Two stock configurations are provided:

* :func:`paper_config` — the exact Table II system (4 GHz cores, 8 MB L2,
  256 MB stacked-DRAM cache, 4 channels x 16 banks, 4 KB rows).
* :func:`scaled_config` — the same system with capacities scaled down so a
  full multiprogrammed simulation finishes in seconds of host time.  The
  paper notes DCA "is not sensitive to the cache size" (it improves
  scheduling, not hit rate), so scaling capacity while keeping the row
  layout, queue sizes and timings identical preserves the phenomena being
  studied (priority inversion, RRC, turnarounds, flush latency).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional, Union

PS_PER_NS = 1000

#: Convert nanoseconds (possibly fractional, e.g. 3.33) to integer picoseconds.
def ns(v: float) -> int:
    """Convert nanoseconds to integer picoseconds (rounded)."""
    return round(v * PS_PER_NS)


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters in picoseconds (paper Table II).

    The stacked-DRAM part uses timings "half-way between today's latency and
    the predicted latency" following Sim et al. (MICRO'12), as the paper
    does.  A DDR3-1600 set is provided for the off-chip comparison point and
    for tests.

    tRRD, tFAW, tREFI and tRFC are **rank-level constraints** consumed
    only by the command-level substrate model (``fidelity="command"``;
    see :class:`SubstrateConfig` and :mod:`repro.dram.command`).  The
    burst-granular default model ignores them, so they default to 0
    ("unconstrained") and a value of 0 keeps the corresponding mechanism
    off even at command fidelity.

    ``tCS`` is the rank-to-rank data-bus turnaround (gem5's
    different-rank bus delay): a burst targeting a different rank than
    the previous burst on the channel may not start earlier than ``tCS``
    after the bus frees.  It applies at *both* fidelities (it is a bus
    constraint, not a command constraint) and defaults to 0, which is
    exact for the single-rank stacked part.
    """

    tRCD: int    # ACT -> CAS (row to column delay)
    tCAS: int    # CAS -> first data (column access strobe / CL)
    tRP: int     # PRE -> ACT (row precharge)
    tRAS: int    # ACT -> PRE (row active minimum)
    tWTR: int    # end of write data -> read command (bus turnaround W->R)
    tRTP: int    # read CAS -> PRE
    tRTW: int    # read -> write command (bus turnaround R->W)
    tWR: int     # end of write data -> PRE (write recovery)
    tBURST: int  # data burst duration on the bus
    tRRD: int = 0    # ACT -> ACT, same rank (0 = unconstrained)
    tFAW: int = 0    # window admitting at most four ACTs per rank (0 = off)
    tREFI: int = 0   # average periodic refresh interval (0 = no refresh)
    tRFC: int = 0    # refresh cycle time: rank blackout per refresh
    tCS: int = 0     # rank-to-rank bus turnaround (0 = free rank switch)

    def __post_init__(self) -> None:
        # A typo'd timing (0, negative, or tRFC swallowing the whole
        # refresh interval) used to silently produce garbage results;
        # reject it at construction instead.
        for name in ("tRCD", "tCAS", "tRP", "tRAS", "tWTR", "tRTP",
                     "tRTW", "tWR", "tBURST"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"DRAMTimings.{name} must be a positive picosecond "
                    f"count, got {getattr(self, name)!r}")
        for name in ("tRRD", "tFAW", "tREFI", "tRFC", "tCS"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"DRAMTimings.{name} must be >= 0 (0 disables it), "
                    f"got {getattr(self, name)!r}")
        if self.tFAW and self.tRRD and self.tFAW < self.tRRD:
            raise ValueError(
                f"tFAW ({self.tFAW}) spans four ACTs and cannot be "
                f"shorter than one ACT-to-ACT gap tRRD ({self.tRRD})")
        if self.tREFI and self.tRFC >= self.tREFI:
            raise ValueError(
                f"tRFC ({self.tRFC}) must be smaller than the refresh "
                f"interval tREFI ({self.tREFI}) or refresh starves the rank")
        if self.tREFI and not self.tRFC:
            raise ValueError("tREFI is set but tRFC is 0: a refresh with "
                             "no cycle time models nothing")

    @classmethod
    def stacked(cls) -> "DRAMTimings":
        """Die-stacked (wide-IO-like) timings from Table II."""
        return cls(
            tRCD=ns(8), tCAS=ns(8), tRP=ns(8), tRAS=ns(30),
            tWTR=ns(5), tRTP=ns(7.5), tRTW=ns(1.67),
            tWR=ns(15), tBURST=ns(3.33),
            tRRD=ns(5), tFAW=ns(25), tREFI=ns(3900), tRFC=ns(120),
        )

    @classmethod
    def ddr3_1600(cls) -> "DRAMTimings":
        """Conventional DDR3-1600-like timings (for tests / off-chip model)."""
        return cls(
            tRCD=ns(13.75), tCAS=ns(13.75), tRP=ns(13.75), tRAS=ns(35),
            tWTR=ns(7.5), tRTP=ns(7.5), tRTW=ns(2.5),
            tWR=ns(15), tBURST=ns(5),
            tRRD=ns(6), tFAW=ns(30), tREFI=ns(7800), tRFC=ns(160),
            tCS=ns(2.5),
        )


#: Substrate fidelities accepted by SubstrateConfig.
SUBSTRATE_FIDELITIES = ("burst", "command")


@dataclass(frozen=True)
class SubstrateConfig:
    """Which DRAM substrate model the controllers schedule onto.

    ``fidelity="burst"`` is the access-granular model every controller
    comparison uses by default (fast, the paper's operating point);
    ``fidelity="command"`` swaps in :class:`repro.dram.command.CommandChannel`,
    which additionally enforces per-rank ACT throttling (tRRD spacing and
    the four-ACT tFAW window) and periodic refresh (tREFI scheduling with
    a tRFC rank blackout and postpone accounting).  Both models keep rows
    open and implement the same :class:`repro.dram.substrate.Substrate`
    protocol, so every layer above is fidelity-agnostic and a sweep axis
    like ``substrate.fidelity=burst,command`` just works.

    The command model's mechanisms are switched off through the timings:
    ``timings.tREFI=0`` disables refresh, ``timings.tRRD=0`` and
    ``timings.tFAW=0`` the ACT limits.
    """

    fidelity: str = "burst"

    def __post_init__(self) -> None:
        if self.fidelity not in SUBSTRATE_FIDELITIES:
            raise ValueError(
                f"unknown substrate fidelity {self.fidelity!r}; "
                f"known: {SUBSTRATE_FIDELITIES}")


#: Address-interleave policies accepted by DRAMOrganization (implemented
#: in repro.dram.address; the name tuple lives here so bad sweep specs
#: die at config construction, before any machinery is built).
INTERLEAVE_POLICIES = ("robarachco", "chxor")


@dataclass(frozen=True)
class DRAMOrganization:
    """Geometry of one DRAM level (stacked cache or off-chip memory).

    ``row_bytes`` is the row-buffer size.  ``interleave`` names the
    address bit-slicing policy (see :mod:`repro.dram.address`):

    * ``"robarachco"`` — the paper's Table II layout
      (row : bank : rank : channel : column, MSB to LSB);
    * ``"chxor"`` — RoBaRaChCo with the channel index XOR-folded with
      low row bits (permutation channel hashing).

    Geometry is validated at construction — a non-power-of-two channel/
    rank/bank count or a malformed row layout raises here, so a bad
    sweep spec dies at expansion time, not deep inside a worker build.
    """

    channels: int = 4
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    row_bytes: int = 4096
    block_bytes: int = 64
    interleave: str = "robarachco"

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "row_bytes", "block_bytes"):
            v = getattr(self, name)
            if v <= 0 or v & (v - 1):
                raise ValueError(
                    f"DRAMOrganization.{name} must be a positive power "
                    f"of two, got {v!r}")
        if self.row_bytes < self.block_bytes:
            raise ValueError(
                f"row_bytes ({self.row_bytes}) must hold at least one "
                f"block ({self.block_bytes} bytes)")
        if self.interleave not in INTERLEAVE_POLICIES:
            raise ValueError(
                f"unknown interleave policy {self.interleave!r}; "
                f"known: {INTERLEAVE_POLICIES}")

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def blocks_per_row(self) -> int:
        return self.row_bytes // self.block_bytes


@dataclass(frozen=True)
class QueueConfig:
    """Per-channel controller queue sizes and watermarks (Table II).

    The read queue holds 64 entries (32 for ROD, which also carries the
    writeback-request read-tags in its 96-entry write queue).  The sizes
    depend on the design, so they default to ``None`` ("the design's
    Table II size") and :meth:`for_design` settles them.  The write
    queue drains between a low watermark (50 %) and a forced-flush high
    watermark (85 %).  DCA's low-priority-read drain uses the Algorithm 1
    hysteresis: start draining all reads above 85 % occupancy, stop below
    75 %.
    """

    read_entries: Optional[int] = None
    write_entries: Optional[int] = None
    write_low_watermark: float = 0.50
    write_high_watermark: float = 0.85
    lr_drain_high: float = 0.85   # DCA Algorithm 1: ScheduleAll=True above this
    lr_drain_low: float = 0.75    # DCA Algorithm 1: ScheduleAll=False below this
    #: per-channel issue window: how many accesses may be committed but not
    #: yet completed.  >1 lets bank preparations (PRE/ACT) of different
    #: banks overlap in-flight bursts, modelling command-level pipelining;
    #: small enough that scheduling stays reactive at burst granularity.
    issue_window: int = 8
    #: once an opportunistic (bus-idle) write drain begins, at least this
    #: many writes issue before an arriving read may preempt it: write-mode
    #: excursions must amortize their two turnarounds.
    opportunistic_min_batch: int = 8
    #: latency of serving a read from the write buffer (forwarding): reads
    #: that hit a pending writeback/refill never touch the DRAM array
    #: (standard write buffering, paper §II-C ref [10]).
    forward_latency_ps: int = 2000

    def for_design(self, design: str) -> "QueueConfig":
        """This config with every unset size at the design's Table II
        size: 32 reads / 96 writes for ROD, 64 / 64 for the others.
        A size that is set is kept, whatever the design."""
        read, write = (32, 96) if design.upper() == "ROD" else (64, 64)
        if self.read_entries is not None:
            read = self.read_entries
        if self.write_entries is not None:
            write = self.write_entries
        return replace(self, read_entries=read, write_entries=write)


@dataclass(frozen=True)
class BLISSConfig:
    """BLISS blacklisting scheduler parameters (Subramanian et al.)."""

    blacklist_threshold: int = 4        # consecutive requests before blacklisting
    clearing_interval_ps: int = ns(10_000)  # blacklist cleared every 10 us


@dataclass(frozen=True)
class DCAConfig:
    """DCA-specific knobs: RRPC counter maximum and OFS flushing factor."""

    rrpc_max: int = 7
    flushing_factor: int = 4   # FF-4, the paper's operating point


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one SRAM cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int = 64
    latency_cycles: int = 1

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.block_bytes)


@dataclass(frozen=True)
class DRAMCacheGeometry:
    """Geometry of the stacked-DRAM cache (L3).

    ``data_capacity`` reflects the tags-in-DRAM overhead: for the paper's
    256 MB cache, 240 MB holds data (the "1/15 way" line in Table II: the
    direct-mapped organization stores 1 way per tag-and-data unit, the
    set-associative organization 15 ways per tag block).
    """

    size_bytes: int = 256 * 2**20
    block_bytes: int = 64
    sa_ways: int = 15          # set-associative organization (Loh-Hill style)
    row_bytes: int = 4096

    # cached_property (not property): these sit on the per-access hot
    # path of the functional array, and a frozen dataclass still allows
    # the cache write because cached_property stores straight into
    # ``__dict__`` without going through the blocked ``__setattr__``.
    @cached_property
    def data_capacity(self) -> int:
        """Usable data bytes: 15/16 of raw capacity (1 tag block per 15 data)."""
        return self.size_bytes * 15 // 16

    @cached_property
    def sa_sets(self) -> int:
        """Number of sets in the set-associative organization.

        Each 4 KB row holds 4 sets of (1 tag block + 15 data blocks).
        """
        return self.data_capacity // (self.block_bytes * self.sa_ways)

    @cached_property
    def dm_entries(self) -> int:
        """Number of block entries in the direct-mapped organization.

        Alloy-style TADs (tag-and-data, ~72 B) pack 56 per 4 KB row; we use
        the same 15/16 usable fraction = 60 blocks/row for geometry parity
        with the set-associative layout so both organizations cache the
        same number of bytes.
        """
        return self.data_capacity // self.block_bytes


@dataclass(frozen=True)
class CPUConfig:
    """Core model parameters (paper Table II: 4 GHz, 8-wide, 192 ROB)."""

    freq_ghz: float = 4.0
    width: int = 8
    rob_entries: int = 192
    max_outstanding_misses: int = 16   # per-core MSHR / MLP bound
    l2_hit_stall_fraction: float = 0.5  # fraction of L2 hit latency the OoO core cannot hide

    @property
    def cycle_ps(self) -> int:
        return round(1000 / self.freq_ghz)


#: Main-memory models accepted by MainMemoryConfig.
MAINMEM_MODELS = ("flat", "banked")


def _ddr3_mainmem_org() -> DRAMOrganization:
    """DDR3-1600 x64 geometry from the gem5 exemplar (8x8 devices).

    Two channels of two ranks x 8 banks; each rank's row buffer is
    1 KB per device x 8 devices = 8 KB.
    """
    return DRAMOrganization(channels=2, ranks_per_channel=2,
                            banks_per_rank=8, row_bytes=8192)


@dataclass(frozen=True)
class MainMemoryConfig:
    """Off-chip memory below the DRAM cache.

    Two models, selected by ``model`` (sweepable as ``mainmem.model``):

    * ``"flat"`` (default, the paper's operating point) — a flat 50 ns
      access behind a 2 GHz / 64-bit bus; contention for that single
      bus is the only queuing effect.
    * ``"banked"`` — a real N-channel x M-rank banked device built from
      the same parts as the stacked cache: ``org`` + ``timings`` +
      per-channel substrate channels via
      :func:`repro.dram.substrate.make_channel`, with DDR3-1600
      defaults from the gem5 exemplar (including the ``tCS``
      rank-to-rank bus turnaround).  ``substrate`` selects the channel
      fidelity (burst default; ``mainmem.substrate.fidelity=command``
      adds refresh + rank throttling off-chip too).

    ``org``/``timings``/``substrate`` only take effect for the banked
    model; the flat model reads ``latency_ps`` and the bus parameters.
    """

    latency_ps: int = ns(50)
    bus_ghz: float = 2.0
    bus_bits: int = 64
    block_bytes: int = 64
    model: str = "flat"
    org: DRAMOrganization = field(default_factory=_ddr3_mainmem_org)
    timings: DRAMTimings = field(default_factory=DRAMTimings.ddr3_1600)
    substrate: SubstrateConfig = field(default_factory=SubstrateConfig)

    def __post_init__(self) -> None:
        if self.model not in MAINMEM_MODELS:
            raise ValueError(
                f"unknown main-memory model {self.model!r}; "
                f"known: {MAINMEM_MODELS}")
        if self.latency_ps <= 0:
            raise ValueError(
                f"latency_ps must be positive, got {self.latency_ps!r}")

    @property
    def bus_occupancy_ps(self) -> int:
        """Time one 64 B block occupies the off-chip bus (flat model)."""
        transfers = self.block_bytes * 8 // self.bus_bits
        return round(transfers * 1000 / self.bus_ghz)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level bundle of all parameters (Table II)."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(
        size_bytes=32 * 2**10, assoc=2, latency_cycles=2))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(
        size_bytes=8 * 2**20, assoc=16, latency_cycles=20))
    dram_cache: DRAMCacheGeometry = field(default_factory=DRAMCacheGeometry)
    timings: DRAMTimings = field(default_factory=DRAMTimings.stacked)
    org: DRAMOrganization = field(default_factory=DRAMOrganization)
    substrate: SubstrateConfig = field(default_factory=SubstrateConfig)
    queues: QueueConfig = field(default_factory=QueueConfig)
    bliss: BLISSConfig = field(default_factory=BLISSConfig)
    dca: DCAConfig = field(default_factory=DCAConfig)
    mainmem: MainMemoryConfig = field(default_factory=MainMemoryConfig)
    num_cores: int = 4
    l2_mshrs: int = 32

    def with_overrides(
            self,
            overrides: Union[Mapping[str, Any],
                             Iterable[tuple[str, Any]]]) -> "SystemConfig":
        """Return a copy with dotted-path fields replaced.

        ``overrides`` is a mapping or sequence of ``(path, value)`` pairs
        where ``path`` navigates nested config dataclasses, e.g.
        ``"queues.read_entries"``, ``"org.channels"``,
        ``"queues.write_high_watermark"``.  Values are coerced to the type
        of the field they replace (so a sweep axis of ``64`` can target a
        float watermark without producing a distinct-but-equal config).
        """
        items = overrides.items() if hasattr(overrides, "items") else overrides
        cfg = self
        for path, value in items:
            cfg = _replace_path(cfg, path, value)
        return cfg


def coerce_bool(value: object) -> bool:
    """Canonicalise a bool spelled as bool, 0/1, or 'true'/'false'.

    The single bool-coercion rule shared by config overrides and sweep
    axes, so the accepted spellings cannot drift between surfaces.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError(f"cannot interpret {value!r} as a bool")


def _coerce(current: Any, value: Any) -> Any:
    """Coerce an override value to the type of the field it replaces."""
    if current is None:
        # An unset count (the per-design queue sizes): overrides are ints.
        return _coerce(0, value)
    if isinstance(current, bool):
        return coerce_bool(value)
    if isinstance(current, int):
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is a bool, not a count")
        if float(value) != int(value):
            raise ValueError(f"{value!r} is not a whole number")
        return int(value)
    if isinstance(current, float):
        return float(value)
    return type(current)(value)


def _replace_path(obj: Any, path: str, value: Any) -> Any:
    """Functional deep-replace along a dotted dataclass field path.

    Only declared dataclass *fields* are addressable (not properties or
    arbitrary attributes — ``replace()`` couldn't set those anyway), and
    a path that tries to descend into a scalar fails with the same
    ValueError vocabulary as an unknown field, so sweep axes always get
    an actionable usage error instead of a worker-side TypeError.
    """
    first, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(obj):
        raise ValueError(
            f"config path segment {first!r} descends into "
            f"{type(obj).__name__}, which is a scalar, not a config group")
    names = [f.name for f in dataclasses.fields(obj)]
    if first not in names:
        raise ValueError(
            f"unknown config field {first!r} on {type(obj).__name__}; "
            f"known: {names}")
    if rest:
        return replace(obj, **{first: _replace_path(
            getattr(obj, first), rest, value)})
    current = getattr(obj, first)
    if dataclasses.is_dataclass(current):
        raise ValueError(
            f"config path {path!r} names a group, not a scalar field; "
            f"pick one of its fields: "
            f"{[f.name for f in dataclasses.fields(current)]}")
    return replace(obj, **{first: _coerce(current, value)})


def paper_config() -> SystemConfig:
    """The exact Table II configuration."""
    return SystemConfig()


def scaled_config(scale: int = 8) -> SystemConfig:
    """Capacity-scaled configuration for fast simulation.

    Divides L2 and DRAM-cache capacity by ``scale`` while keeping block
    size, row layout, way counts, queue sizes, and all timings identical.
    Workload footprints in :mod:`repro.workloads` are scaled by the same
    factor, so hit rates and per-row access patterns are preserved.
    """
    base = SystemConfig()
    return replace(
        base,
        l2=replace(base.l2, size_bytes=base.l2.size_bytes // scale),
        dram_cache=replace(base.dram_cache,
                           size_bytes=base.dram_cache.size_bytes // scale),
    )
