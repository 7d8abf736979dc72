"""R2 fixture: mutable module state in a simulation package."""

_PENDING = []                     # expect: R2
_MEMO = dict()                    # expect: R2
_TABLE = [0] * 16                 # expect: R2
