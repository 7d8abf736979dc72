"""Warm states and the warm-state cache.

A warm state (:class:`WarmState`, captured via
``System.capture_warm_state``) freezes only the *design-independent*
warm-up products of a run — DRAM-cache array contents, L2 contents, trace
positions.  Everything a controller design influences (timing, queues,
predictors) is exactly what a fresh system starts with zeroed, so one warm
state forks an entire controller-design sweep: ``run_grid`` groups points
by :func:`~repro.experiments.common.warm_group_key` (the run prefix with
controller-irrelevant fields masked), and the invariant is that a forked
run equals a cold run bit-for-bit (``tests/test_warm_cache.py``).

What a restore relies on (see DESIGN.md "Warm states"):

* **traces are resumed by skipping** — each core reads its trace through
  a :class:`~repro.workloads.cursor.TraceCursor`; a restore rebuilds the
  stream from its source and skips the captured count of operations;
* **no hidden globals** — the scheduler age tiebreak (``Access.seq``)
  is drawn from a per-system counter on the Translator, so any number of
  systems (warm forks in one process, ``run_grid`` pool workers) may run
  interleaved without changing each other's results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from repro.config import SystemConfig

#: Version of the :class:`WarmState` payload.
#: v2: identity gained the array replacement policy (``array_replacement``
#: alongside the l2 geometry's own ``replacement`` field) — contents laid
#: out under one victim policy must not seed a run using another.
#: v3: ``array_state`` holds immutable copies of the flat columns
#: (``tags``/``dirty``/``stamp``) instead of a shared per-set backing dict.
#: v4: a direct-mapped ``array_state`` holds the flat columns too; a v3
#: payload holds a ``dm`` entry dict the array can no longer restore.
#: v5: ``l2_state`` is ``{set: {tag: dirty}}`` in LRU order with no
#: ``clock``; a v4 payload holds ``[tag, dirty, stamp]`` entry lists.
#: v6: identity loses ``array_replacement`` (and the l2 geometry its
#: ``replacement`` field): every cache evicts LRU.
WARM_STATE_VERSION = 6


class WarmStateError(RuntimeError):
    """A warm state does not fit the system it is being restored into."""


@dataclass
class WarmState:
    """Design-independent warm-up products of one (workload, substrate) run.

    Produced by ``System.capture_warm_state`` immediately after the
    functional warm-up; consumed by ``System.restore_warm_state`` on a
    *fresh* system built over the same prefix.  The identifying fields
    double as a safety net: restore refuses a mismatched system instead
    of silently diverging from the cold-run result; they are exactly the
    keys of :func:`warm_identity`.
    """

    schema_version: int
    organization: str
    seed: int
    benchmarks: list[str]
    footprint_scale: float
    lee_writeback: bool
    #: resolved geometries the contents were laid out under — adopted
    #: sets indexed for a different geometry would be silently wrong,
    #: so restore compares these, not just the organization string
    dram_cache_geometry: dict
    l2_geometry: dict
    #: trace operations each core consumed during the functional warm-up
    trace_counts: list[int]
    #: ``DRAMCacheArray.capture_state()`` payload (an immutable copy of
    #: the contents; every restore copies it again)
    array_state: dict
    #: ``SRAMCache.capture_state()`` payload
    l2_state: dict
    meta: dict = field(default_factory=dict)


def warm_identity(cfg: SystemConfig, organization: str, seed: int,
                  benchmarks: Sequence[str], footprint_scale: float,
                  lee_writeback: bool) -> dict[str, Any]:
    """The identity fields of a :class:`WarmState` built from these inputs.

    ``System.capture_warm_state`` stores them, ``restore_warm_state``
    refuses a state whose fields differ from its own, and
    ``repro.experiments.common.warm_group_key`` hashes them, so all three
    cover the same warm-relevant inputs by construction.  ``cfg`` is the
    resolved config and ``benchmarks`` the per-core workload names.  The
    replay budget is not here: ``trace_counts`` carries it, and
    ``repro.experiments.common.run_one`` checks it against the params'
    budget before it adopts a cached state.
    """
    return dict(
        organization=organization, seed=seed, benchmarks=list(benchmarks),
        footprint_scale=footprint_scale, lee_writeback=lee_writeback,
        dram_cache_geometry=asdict(cfg.dram_cache),
        l2_geometry=asdict(cfg.l2))


# ------------------------------------------------------------------ warm cache

class WarmCache:
    """Bounded in-process cache of :class:`WarmState` keyed by run prefix.

    ``run_grid`` creates one instance per sequential grid call or per
    pool task (a warm group): the first design point of a (mix,
    substrate) group populates it, every later point forks from it.
    Entries are evicted FIFO beyond ``capacity`` — each warm state holds
    an immutable copy of its DRAM-cache and L2 contents, so an unbounded
    cache would pin every footprint ever warmed.
    """

    def __init__(self, capacity: int = 8):
        if capacity <= 0:
            raise ValueError("warm cache capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, WarmState] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[WarmState]:
        warm = self._entries.get(key)
        if warm is None:
            self.misses += 1
        else:
            self.hits += 1
        return warm

    def put(self, key: str, warm: WarmState) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = warm

    def clear(self) -> None:
        self._entries.clear()

