"""R2 fixture: every legal way to hold state in a simulation package."""

__all__ = ["Owner"]                # __all__ is exempt

_LIMIT = 64                        # scalars are fine
_ROLES = frozenset({"PR", "LR"})   # immutable containers are fine


class Owner:
    """Mutable state on an owning object: one copy per system."""

    def __init__(self):
        self.rows = {}
        self.seq = 0
