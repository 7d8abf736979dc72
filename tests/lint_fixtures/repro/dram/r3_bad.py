"""R3 fixture: slotless hot-path classes."""


class BareTimingState:            # expect: R3
    """dram/ class without __slots__."""

    def __init__(self, t):
        self.t = t


class AlsoBare:                   # expect: R3
    pass

