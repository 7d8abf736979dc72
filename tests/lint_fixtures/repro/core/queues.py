"""R3 fixture: core/queues.py is a hot module, so its classes need slots."""


class Bucket:                     # expect: R3
    """A queue bucket without __slots__."""

    def __init__(self, gb):
        self.gb = gb


class SlottedBucket:
    __slots__ = ("gb",)

    def __init__(self, gb):
        self.gb = gb
