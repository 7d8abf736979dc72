"""R3 fixture: slotted hot classes and exempt families."""

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Protocol


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 0
        self.b = 0


class RowState(IntEnum):
    CLOSED = 0
    HIT = 1


class Decoded(NamedTuple):
    bank: int
    row: int


@dataclass(frozen=True)
class TimingPoint:
    cycle: int


class SubstrateLike(Protocol):
    bus_free: int


class ChannelStats(MetricGroup):  # noqa: F821 — parsed, never executed
    """MetricGroup family: dynamic counters, exempt from __slots__."""

    COUNTERS = ("reads", "writes")


class TimingError(ValueError):
    pass

