"""The whole stacked-DRAM device: channels + the address mapper."""

from __future__ import annotations

from repro.config import DRAMOrganization, DRAMTimings, SubstrateConfig
from repro.dram.address import AddressMapper
from repro.dram.command import CommandChannel
from repro.dram.stats import ChannelStats, RankStats
from repro.dram.channel import Channel
from repro.dram.substrate import make_channel
from repro.metrics.registry import MetricRegistry


class DRAMDevice:
    """All channels of the stacked DRAM plus address decoding.

    The controller owns one queue pair per channel; the device provides the
    timing substrate those queues schedule onto.  The substrate *model* is
    pluggable (``SubstrateConfig.fidelity``; see repro.dram.substrate) —
    every channel is built through :func:`~repro.dram.substrate.make_channel`
    and the device itself is fidelity-agnostic.  Per-channel counter
    groups are published in :attr:`metrics` (``ch0``, ``ch1``, ...) so the
    controller/system registries can mount the substrate subtree directly.
    """

    __slots__ = ("timings", "org", "substrate", "mapper", "metrics",
                 "channels")

    def __init__(self, timings: DRAMTimings, org: DRAMOrganization,
                 xor_remap: bool = False,
                 substrate: SubstrateConfig | None = None):
        self.timings = timings
        self.org = org
        self.substrate = (substrate if substrate is not None
                          else SubstrateConfig())
        self.mapper = AddressMapper(org, xor_remap=xor_remap)
        self.metrics = MetricRegistry()
        self.channels: list[Channel] = []
        for i in range(org.channels):
            channel = make_channel(timings, org, self.substrate)
            self.metrics.register(f"ch{i}", channel.stats)
            # The rank dimension is published only when it is real:
            # command-fidelity channels with >1 rank get one RankStats
            # group per rank (siblings of the channel group — ch{i} is a
            # leaf, nothing can nest under it).  Single-rank devices
            # keep their exact metric key set (golden pins).
            if (isinstance(channel, CommandChannel)
                    and org.ranks_per_channel > 1):
                for j, rs in enumerate(channel.rank_groups):
                    self.metrics.register(f"ch{i}_rank{j}", rs)
            self.channels.append(channel)

    def total_stats(self) -> ChannelStats:
        """Aggregate substrate counters across channels.

        Summed under the channels' own stats class, so command-fidelity
        devices aggregate their extra counters too.
        """
        if not self.channels:
            return ChannelStats()
        cls = type(self.channels[0].stats)
        return cls.sum([c.stats for c in self.channels])

    def rank_totals(self) -> list[RankStats]:
        """Cross-channel per-rank rollup: one summed group per rank index.

        Empty unless the device publishes per-rank groups (command
        fidelity with >1 rank), mirroring the registration rule above.
        """
        if self.org.ranks_per_channel <= 1:
            return []
        if not all(isinstance(c, CommandChannel) for c in self.channels):
            return []
        totals: list[RankStats] = []
        for j in range(self.org.ranks_per_channel):
            # ``*_rank{j}`` matches exactly the per-rank groups (channel
            # leaves are plain ``ch{i}``), so the registry rollup is the
            # cross-channel sum for one rank index.
            g = self.metrics.rollup(f"*_rank{j}")
            assert isinstance(g, RankStats)
            totals.append(g)
        return totals

    def reset_stats(self) -> None:
        self.metrics.reset()
