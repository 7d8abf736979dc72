"""The pluggable-fidelity substrate protocol and its factory.

Everything above the DRAM — schedulers and the controller designs —
consumes a channel through one narrow surface, the :class:`Substrate`
protocol:

* ``open_rows`` — the struct-of-arrays column the schedulers read
  directly to classify rows (``-1`` = closed);
* ``issue`` — commit one access, returning ``(burst_start, burst_end)``;
* ``reset_stats`` — warm-up boundary.

Nothing above the DRAM asks for a burst start before committing, so
the protocol has no estimate query.

Two models implement it:

* ``fidelity="burst"`` — :class:`repro.dram.channel.Channel`, the
  access-granular default.  Collapses the command pipeline the way
  controller-design studies do; fastest, and the model every paper
  figure is calibrated on.
* ``fidelity="command"`` — :class:`repro.dram.command.CommandChannel`,
  which additionally enforces per-rank ACT throttling (tRRD / tFAW)
  and periodic refresh (tREFI / tRFC with postpone accounting); both
  models keep rows open.

:func:`make_channel` is the one construction point; the
:class:`~repro.config.SubstrateConfig` it consumes rides on
``SystemConfig.substrate``, so ``dca-repro sweep --axis
substrate.fidelity=burst,command`` sweeps the substrate like any other
config path.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.config import DRAMOrganization, DRAMTimings, SubstrateConfig
from repro.dram.channel import Channel
from repro.dram.command import CommandChannel
from repro.dram.stats import ChannelStats


@runtime_checkable
class Substrate(Protocol):
    """The commit surface controllers and schedulers consume.

    Structural: any object with these members is a substrate.  The two
    shipped models share :class:`~repro.dram.channel.Channel`'s bus core,
    but a foreign implementation only needs this surface plus the
    ``open_rows`` struct-of-arrays column (one ``int`` per bank, ``-1`` =
    closed) the schedulers index directly.
    """

    open_rows: list[int]
    bus_free: int
    stats: ChannelStats

    def issue(self, rank: int, bank: int, row: int, is_write: bool,
              now: int) -> tuple[int, int]: ...

    def reset_stats(self) -> None: ...


def make_channel(timings: DRAMTimings, org: DRAMOrganization,
                 substrate: SubstrateConfig | None = None,
                 stats: ChannelStats | None = None) -> Channel:
    """Construct one channel of the configured fidelity.

    With ``stats=None`` the model picks its own counter group —
    :class:`~repro.dram.stats.ChannelStats` for burst,
    :class:`~repro.dram.stats.CommandChannelStats` (a superset) for
    command — so burst-fidelity metric snapshots stay bit-identical to
    the pre-protocol layout.
    """
    sub = substrate if substrate is not None else SubstrateConfig()
    if sub.fidelity == "burst":
        return Channel(timings, org, stats=stats)
    if sub.fidelity == "command":
        return CommandChannel(timings, org, stats=stats)
    raise ValueError(f"unknown substrate fidelity {sub.fidelity!r}")
