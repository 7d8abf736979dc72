"""Die-stacked DRAM substrate: timing model, banks, channels, address mapping.

This package models the stacked DRAM at the granularity a controller sees:
per-bank row-buffer state with ACT/PRE/CAS timing composition, a per-channel
data bus with read/write direction tracking (bus turnarounds cost
tWTR / tRTW), and the RoBaRaChCo address interleaving from the paper's
Table II, optionally post-processed by the permutation-based XOR remapping
of Zhang et al. (MICRO'00).
"""

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.channel import Channel
from repro.dram.command import CommandChannel
from repro.dram.device import DRAMDevice
from repro.dram.stats import ChannelStats, CommandChannelStats
from repro.dram.substrate import Substrate, make_channel

__all__ = [
    "AddressMapper",
    "DecodedAddress",
    "Channel",
    "CommandChannel",
    "DRAMDevice",
    "ChannelStats",
    "CommandChannelStats",
    "Substrate",
    "make_channel",
]
