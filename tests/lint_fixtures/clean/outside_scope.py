"""A file outside any repro package: package-scoped rules never fire.

Tree-wide rules (R4, R5) still apply, which estimate_nothing checks.
"""

import time

_CACHE = {}          # R2 does not apply outside simulation packages


class NoSlotsNeeded:
    def __init__(self):
        self.journal = []   # R3 out of scope here

    def now(self):
        return time.time()  # R1 out of scope here


def estimate_nothing(self_like):
    # R4 matches methods via self-attribute targets; plain args are fine.
    total = self_like.bus_free + 1
    return total
