"""Instrumentation: the span tracer of the traced run, and the probe and
calibration of the timed runs.

The tracer wraps the public entry points of each simulator layer at class
level (so every object built while it is installed calls through the
wrapper) and records one span per call: entry id, parent span, start and
end in ``perf_counter_ns``.  Spans live in compact in-memory columns
(``array``) and are written out only after the run, so tracing does no
I/O while it measures.  A layer's self time is the duration of its spans
minus the part covered by their child spans; code reached without
crossing a wrapped entry point is billed to the enclosing span's layer.

Event dispatch is traced by routing every ``Simulator.at`` callback
through a dispatcher, which opens a span named after the callback and
billed to the layer of the module that defines it (``Core._step`` bills
``sim.cpu``, a controller callback bills ``core``, ...).  The engine's
own self time is therefore the loop and scheduling work around the
callbacks.  Nothing under ``src/`` is modified: uninstalling restores
every original attribute.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: the layers self time is attributed to, in report order
LAYERS = ("experiments", "workloads", "sim.engine", "sim.cpu", "sim.system",
          "sim.warmup", "snapshot", "mem", "cache", "cache.tagcache",
          "core", "dram")

#: (layer, "module:Class.method") entry points wrapped at class level
ENTRY_POINTS = (
    ("experiments", "repro.experiments.common:ResultStore.load"),
    ("experiments", "repro.experiments.common:ResultStore.store"),
    ("workloads", "repro.workloads.cursor:TraceCursor.__next__"),
    ("workloads", "repro.workloads.cursor:TraceCursor.skip"),
    ("sim.engine", "repro.sim.engine:Simulator.run"),
    ("sim.engine", "repro.sim.engine:Simulator.drain"),
    ("sim.system", "repro.sim.system:System.mem_access"),
    ("sim.warmup", "repro.sim.system:System.functional_warmup"),
    ("snapshot", "repro.sim.system:System.capture_warm_state"),
    ("snapshot", "repro.sim.system:System.restore_warm_state"),
    ("core", "repro.core.base:BaseController.submit"),
    ("dram", "repro.dram.channel:Channel.issue"),
    ("dram", "repro.dram.channel:Channel.estimate_burst_start"),
    ("dram", "repro.dram.command:CommandChannel.issue"),
    ("mem", "repro.mem.sram:SRAMCache.touch"),
    ("mem", "repro.mem.sram:SRAMCache.access"),
    ("mem", "repro.mem.sram:SRAMCache.fill"),
    ("mem", "repro.mem.mainmem:MainMemory.fetch"),
    ("mem", "repro.mem.mainmem:MainMemory.write"),
    ("mem", "repro.mem.mainmem:BankedMainMemory.fetch"),
    ("mem", "repro.mem.mainmem:BankedMainMemory.write"),
    ("cache", "repro.cache.dramcache:DRAMCacheArray.lookup_read"),
    ("cache", "repro.cache.dramcache:DRAMCacheArray.lookup_write"),
    ("cache", "repro.cache.dramcache:DRAMCacheArray.fill"),
    ("cache.tagcache", "repro.cache.tagcache:TagCache.access"),
)

#: entry points whose result says whether the access hit
HIT_OF: dict[str, Callable[[Any], bool]] = {
    "SRAMCache.touch": bool,
    "DRAMCacheArray.lookup_read": lambda r: r.hit,
    "TagCache.access": bool,
}

#: off-chip memory entries: substrate issues under them are main-memory
#: work (the banked model), not the DRAM cache's own substrate
MAINMEM_ENTRIES = ("MainMemory.fetch", "MainMemory.write",
                   "BankedMainMemory.fetch", "BankedMainMemory.write")
SUBSTRATE_ISSUES = ("Channel.issue", "CommandChannel.issue")

#: module prefix -> layer, first match wins (event callbacks)
MODULE_LAYERS = (
    ("repro.sim.cpu", "sim.cpu"), ("repro.sim.system", "sim.system"),
    ("repro.sim.engine", "sim.engine"), ("repro.core", "core"),
    ("repro.dram", "dram"), ("repro.mem", "mem"),
    ("repro.cache.tagcache", "cache.tagcache"), ("repro.cache", "cache"),
    ("repro.workloads", "workloads"), ("repro.snapshot", "snapshot"),
    ("repro.experiments", "experiments"), ("repro.scenarios", "experiments"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "sim.engine"


class Tracer:
    """Records spans around layer entry points while installed."""

    def __init__(self) -> None:
        self.entry_names: list[str] = []
        self.entry_layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._names = array("H")
        self._parents = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._state = [-1]           # index of the innermost open span
        self.hits: dict[str, int] = {name: 0 for name in HIT_OF}
        self.skipped_ops = 0         # trace ops fast-forwarded by skip()
        self._patches: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- spans

    def entry(self, layer: str, name: str) -> int:
        eid = self._ids.get(name)
        if eid is None:
            eid = self._ids[name] = len(self.entry_names)
            self.entry_names.append(name)
            self.entry_layers.append(layer)
        return eid

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with one span per call, billed to ``layer``."""
        eid = self.entry(layer, name)
        add_name, add_parent = self._names.append, self._parents.append
        add_start, ends = self._starts.append, self._ends
        add_end = ends.append
        state, clock = self._state, time.perf_counter_ns
        hit_of = HIT_OF.get(name)
        hits = self.hits

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = state[0]
            i = len(ends)
            state[0] = i
            add_name(eid)
            add_parent(parent)
            add_end(0)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                state[0] = parent
            if hit_of is not None and hit_of(result):
                hits[name] += 1
            return result

        traced.__wrapped__ = fn        # type: ignore[attr-defined]
        return traced

    def _dispatcher(self) -> Callable[[tuple], None]:
        """Event trampoline: one span per dispatched callback."""
        by_func: dict[Any, Callable] = {}

        def dispatch(pair: tuple) -> None:
            fn, arg = pair
            func = getattr(fn, "__func__", fn)
            traced = by_func.get(func)
            if traced is None:
                target = getattr(func, "__wrapped__", func)
                traced = by_func[func] = self.wrap(
                    lambda f, a: f(a), layer_of_module(target.__module__),
                    f"event:{target.__qualname__}")
            traced(fn, arg)

        return dispatch

    # -------------------------------------------------------------- install

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, target in ENTRY_POINTS:
            module, qualname = target.split(":")
            cls_name, meth = qualname.split(".")
            cls = getattr(importlib.import_module(module), cls_name)
            traced = self.wrap(cls.__dict__[meth], layer, qualname)
            if qualname == "TraceCursor.skip":
                traced = self._counting_skip(traced)
            self._patch(cls, meth, traced)

        from repro.sim.engine import Simulator
        traced_at = self.wrap(Simulator.__dict__["at"], "sim.engine",
                              "Simulator.at")
        dispatch = self._dispatcher()

        def at(sim: Any, when: int, fn: Callable, arg: Any = None) -> Any:
            return traced_at(sim, when, dispatch, (fn, arg))

        self._patch(Simulator, "at", at)

        # fig18 streams raw generators, not cursors: trace each next().
        from repro.experiments import fig18_tagcache
        make_trace = fig18_tagcache.make_trace
        stream_next = self.wrap(lambda it: next(it), "workloads",
                                "make_trace.__next__")

        class _Stream:
            __slots__ = ("_it",)

            def __init__(self, it: Iterator) -> None:
                self._it = it

            def __iter__(self) -> "_Stream":
                return self

            def __next__(self) -> Any:
                return stream_next(self._it)

        self._patch(fig18_tagcache, "make_trace",
                    lambda *a, **k: _Stream(make_trace(*a, **k)))

    def _counting_skip(self, traced_skip: Callable) -> Callable:
        def skip(cursor: Any, n: int) -> None:
            self.skipped_ops += n
            traced_skip(cursor, n)
        return skip

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------- analysis

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "entry": np.frombuffer(self._names, dtype=np.uint16),
            "parent": np.frombuffer(self._parents, dtype=np.int32),
            "start_ns": np.frombuffer(self._starts, dtype=np.int64),
            "end_ns": np.frombuffer(self._ends, dtype=np.int64),
        }

    def analyse(self) -> "SpanSummary":
        cols = self.columns()
        entry, parent = cols["entry"], cols["parent"]
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        n_entries = len(self.entry_names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_ns = dur - child

        layer_idx = np.array([LAYERS.index(layer)
                              for layer in self.entry_layers], dtype=np.int64)
        span_layer = layer_idx[entry]
        off_chip = np.zeros(len(entry), dtype=bool)
        mainmem_ids = [self._ids[n] for n in MAINMEM_ENTRIES if n in self._ids]
        issue_ids = [self._ids[n] for n in SUBSTRATE_ISSUES if n in self._ids]
        if mainmem_ids and issue_ids and nested.any():
            under = np.zeros(len(entry), dtype=bool)
            under[nested] = np.isin(entry[parent[nested]], mainmem_ids)
            off_chip = under & np.isin(entry, issue_ids)
            span_layer = np.where(off_chip, LAYERS.index("mem"), span_layer)

        layer_self = np.bincount(span_layer, weights=self_ns,
                                 minlength=len(LAYERS))
        calls = np.bincount(entry, minlength=n_entries)
        off_chip_calls = np.bincount(entry[off_chip], minlength=n_entries)
        return SpanSummary(
            layer_self_s={layer: float(layer_self[i]) / 1e9
                          for i, layer in enumerate(LAYERS)},
            calls={name: int(calls[i])
                   for i, name in enumerate(self.entry_names)},
            off_chip_calls={name: int(off_chip_calls[i])
                            for i, name in enumerate(self.entry_names)},
            root_s=float(dur[~nested].sum()) / 1e9,
            spans=len(dur),
            hits=dict(self.hits),
            skipped_ops=self.skipped_ops,
        )

    def write(self, path: Path) -> Path:
        """Write the span columns and the entry table to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, entries=np.array(json.dumps(
            [{"name": n, "layer": layer} for n, layer
             in zip(self.entry_names, self.entry_layers)])), **self.columns())
        return path


@dataclass
class SpanSummary:
    """Per-layer self time and per-entry call counts of one traced pass."""

    layer_self_s: dict[str, float]
    calls: dict[str, int]
    #: calls of substrate issues made under a main-memory entry
    off_chip_calls: dict[str, int]
    root_s: float
    spans: int
    hits: dict[str, int]
    skipped_ops: int

    def count(self, name: str, on_chip_only: bool = False) -> int:
        n = self.calls.get(name, 0)
        if on_chip_only:
            n -= self.off_chip_calls.get(name, 0)
        return n

    def self_s(self, layer: str) -> float:
        return self.layer_self_s[layer]


#: accesses in one calibration sample (tens of milliseconds on one
#: 2.1 GHz Xeon core)
CALIBRATION_ACCESSES = 40_000


def calibration_work(n: int = CALIBRATION_ACCESSES) -> int:
    """A fixed pure-Python model shaped like the simulator's hot paths: a
    2048-set, 8-way LRU cache of dicts fed by an integer-hash stream of
    256K block addresses (mostly misses and evictions).  Its branchy,
    dict-bound mix slows under host contention much as the simulator
    does; a tight arithmetic loop slows more.  Its containers die with
    the call, so the time does not depend on what the program around it
    holds live.  Returns the hit count."""
    sets: list[dict[int, int]] = [{} for _ in range(2048)]
    x = 12345
    clock = hits = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 12) & 0x3FFFF
        s = sets[addr & 2047]
        tag = addr >> 11
        clock += 1
        if tag in s:
            hits += 1
        elif len(s) >= 8:
            del s[min(s, key=s.__getitem__)]
        s[tag] = clock
    return hits


def calibration_sample() -> float:
    """Host seconds of one :func:`calibration_work`."""
    t0 = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t0


class Probe:
    """Untraced-pass instrumentation, a handful of calls per pass.

    Times every operation (``run_one`` per simulation point,
    ``tag_traffic`` per tag-cache size) and takes one calibration sample
    after each, so the samples interleave with the work they normalise;
    ``calibration_s`` is the time they took inside the pass.  Also sums
    functional warm-up wall, engine events and trace ops per pass.
    """

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.calibration_s: list[float] = []
        self.warmup_s = 0.0
        self.events = 0
        self.trace_ops = 0

    def _op(self, fn: Callable) -> Callable:
        def op(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_s.append(time.perf_counter() - t0)
                self.calibration_s.append(calibration_sample())
        return op

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        from repro.experiments import common, fig18_tagcache
        from repro.sim.system import System
        warmup = System.__dict__["functional_warmup"]
        finish = System.__dict__["finish"]

        def functional_warmup(system: Any, *args: Any, **kwargs: Any) -> None:
            t0 = time.perf_counter()
            try:
                warmup(system, *args, **kwargs)
            finally:
                self.warmup_s += time.perf_counter() - t0

        def finish_(system: Any) -> Any:
            result = finish(system)
            self.events += system.sim.events_run
            self.trace_ops += sum(c.trace.count for c in system.cores)
            return result

        patches = [
            (common, "run_one", self._op(common.run_one)),
            (fig18_tagcache, "tag_traffic",
             self._op(fig18_tagcache.tag_traffic)),
            (System, "functional_warmup", functional_warmup),
            (System, "finish", finish_),
        ]
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
