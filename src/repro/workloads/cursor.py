"""Positioned trace cursors: how a warm state repositions a workload.

Traces are infinite *generators* (``repro.workloads.generator`` and the
scenario frontends), which CPython can neither copy nor pickle.  The
system therefore consumes every trace through a :class:`TraceCursor`: a
thin iterator wrapper that counts **how far the stream has been
consumed**.  It keeps no record of how the stream was built: the system
that owns it does.  Because every trace source is deterministic by
contract (same source + same arguments ⇒ the identical stream —
property-tested in ``tests/test_workloads.py``), a fresh cursor over the
same source and arguments, fast-forwarded with :meth:`TraceCursor.skip`
by another cursor's ``count``, continues bit-identically from that
cursor's position.  This is how ``System.restore_warm_state`` resumes
each core's trace where the functional warm-up left it: the restoring
system builds its own cursors and skips each by the captured count.

Fast-forward cost is linear in ``count``, but a synthetic trace op costs
well under 1 µs to generate (about 0.6 µs with the cursor's own step, on
a 2-core x86-64 box under CPython 3.11), orders of magnitude below
simulating the same ops, so replay never dominates a restore.

Trace sources are required to be immutable (all shipped sources are frozen
dataclasses), which also keeps a
:class:`~repro.workloads.scenarios.TraceFileWorkload`'s parsed ops tuple
shared across all cursors over one file.
"""

from __future__ import annotations

from typing import Any, Iterator


class TraceCursor:
    """A positioned iterator over one trace stream."""

    __slots__ = ("count", "_it")

    def __init__(self, source: Any, **kwargs: Any):
        self.count = 0
        self._it: Iterator[tuple] = source.make_trace(**kwargs)

    def __iter__(self) -> "TraceCursor":
        return self

    def __next__(self) -> tuple:
        op = next(self._it)
        self.count += 1
        return op

    def skip(self, n: int) -> None:
        """Advance ``n`` operations without returning them (fast-forward)."""
        if n < 0:
            raise ValueError(f"cannot rewind a trace cursor by {n}")
        it = self._it
        for _ in range(n):
            next(it)
        self.count += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceCursor(count={self.count})"
