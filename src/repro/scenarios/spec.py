"""Declarative sweep specs and their compilation to RunSpec points.

A :class:`SweepSpec` names a grid: ``axes`` maps axis names to the values
they range over, ``base`` pins fixed values shared by every point.  Axis
names are either

* **RunSpec fields** — ``design``, ``organization``, ``xor_remap``,
  ``mix_id``, ``alone_benchmark``, ``lee_writeback``, ``scheduler``,
  ``use_mapi``, ``seed``, ``workload`` — or
* **config paths** — any dotted path into
  :class:`repro.config.SystemConfig`, e.g. ``queues.read_entries``,
  ``org.channels``, ``queues.write_high_watermark``; these compile into
  the point's ``RunSpec.config`` override tuple.

Compilation is a plain deterministic cross-product in declaration order,
so shard ``i`` of ``n`` (``points[i::n]``) is stable across machines and
re-runs — the property resumable sharded execution rests on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

from repro.config import coerce_bool, scaled_config
from repro.core import DESIGNS as DESIGN_REGISTRY
from repro.core.base import _SCHEDULERS
from repro.experiments.common import RunSpec, SimParams
from repro.sim.system import RESULT_SCHEMA_VERSION
from repro.workloads.profiles import PROFILES
from repro.workloads.scenarios import workload_profiles
from repro.workloads.table1 import TABLE1_MIXES

#: RunSpec fields addressable as sweep axes (everything but ``config``,
#: which is fed by the dotted config axes instead).
RUNSPEC_AXES = tuple(f.name for f in fields(RunSpec) if f.name != "config")

#: top-level SystemConfig scalars (l2_mshrs) — sweepable like dotted
#: config paths.  Excluded: num_cores, which System derives from the
#: workload's benchmark count (one core per benchmark) — an override
#: would be a silent no-op masquerading as a scaling axis.  No name
#: collides with RUNSPEC_AXES.
CONFIG_SCALAR_AXES = tuple(
    f.name for f in fields(scaled_config())
    if f.name != "num_cores"
    and not hasattr(getattr(scaled_config(), f.name), "__dataclass_fields__"))

#: axes that give a point its workload; every point needs at least one
TARGET_AXES = ("mix_id", "alone_benchmark", "workload")


def _is_config_axis(axis: str) -> bool:
    return "." in axis or axis in CONFIG_SCALAR_AXES

_BOOL_AXES = ("xor_remap", "lee_writeback", "use_mapi")


def _coerce_runspec_value(axis: str, value):
    """Coerce + validate one RunSpec axis value at spec-build time.

    Two jobs: (a) type canonicalisation, so ``--axis xor_remap=0,1`` or
    ``design=dca`` produce the same RunSpec — and hence the same cache
    key — as the figure grids (int-typed bools and case variants would
    silently fork the cache); (b) membership validation, so a typo'd
    design/scheduler/workload/benchmark is a build-time usage error, not
    N opaque per-point worker failures after the grid started.
    """
    if axis in _BOOL_AXES:
        try:
            return coerce_bool(value)
        except ValueError:
            raise ValueError(f"axis {axis!r}: {value!r} is not a bool") \
                from None
    if axis in ("seed", "mix_id"):
        # Integral floats (what many JSON emitters produce for 1) are
        # canonicalised to int — 1.0 vs 1 would fork the cache keys.
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"axis {axis}: {value!r} is not an int")
        if axis == "mix_id" and value not in TABLE1_MIXES:
            raise ValueError(
                f"axis mix_id: {value!r} is not a Table I mix (1..30)")
        if axis == "seed" and value == 0:
            # run_one treats seed 0 as "derive a default", so a 0 point
            # would silently duplicate the derived-seed point under a
            # different cache key.
            raise ValueError(
                "axis seed: 0 means 'derived default' and would alias "
                "another point; sweep explicit seeds >= 1")
        return value
    if not isinstance(value, str):
        raise ValueError(f"axis {axis!r}: {value!r} is not a string")
    if axis == "design":
        if value.upper() not in DESIGN_REGISTRY:
            raise ValueError(f"axis design: unknown design {value!r}; "
                             f"known: {sorted(DESIGN_REGISTRY)}")
        return value.upper()
    if axis == "scheduler":
        if value.lower() not in _SCHEDULERS:
            raise ValueError(f"axis scheduler: unknown scheduler {value!r}; "
                             f"known: {sorted(_SCHEDULERS)}")
        return value.lower()
    if axis == "organization":
        if value.lower() not in ("sa", "dm"):
            raise ValueError(f"axis organization: {value!r} is not 'sa'/'dm'")
        return value.lower()
    if axis == "alone_benchmark":
        if value not in PROFILES:
            raise ValueError(f"axis alone_benchmark: unknown benchmark "
                             f"{value!r}; known: {sorted(PROFILES)}")
        return value
    if axis == "workload":
        try:
            profs = workload_profiles(value)   # registry / trace:<path>
            if value.startswith("trace:"):
                for w in profs:
                    # force the lazy parse: a missing or malformed trace
                    # file fails here, not as N per-point worker crashes
                    w.footprint_bytes
        except (KeyError, ValueError, OSError) as exc:
            raise ValueError(f"axis workload: {exc}") from None
        return value
    return value


def parse_axis_value(text: str):
    """Coerce one CLI axis value: bool/int/float/None where unambiguous."""
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _validate_config_axis(path: str, values: Sequence) -> list:
    """Fail fast on a config axis the machine could not actually apply.

    Applies every value to a scratch config through the same
    ``with_overrides`` code path ``run_one`` uses, so an unknown field,
    a path descending into a scalar, a group path, or a value of the
    wrong type (e.g. a string for a queue depth) is a spec-construction
    error — not an opaque per-point worker failure later.  Returns the
    values as coerced by the config (``1`` targeting a float watermark
    becomes ``1.0``), so cache keys can't fork on type spelling.
    """
    scratch = scaled_config()
    coerced = []
    for value in values:
        try:
            cfg = scratch.with_overrides([(path, value)])
        except ValueError as exc:
            raise ValueError(f"config axis {path!r}: {exc}") from None
        except TypeError:
            raise ValueError(
                f"config axis {path!r}: value {value!r} does not fit the "
                f"field's type") from None
        node = cfg
        for part in path.split("."):
            node = getattr(node, part)
        coerced.append(node)
    return coerced


@dataclass(frozen=True)
class SweepPoint:
    """One compiled grid point: the axis assignment and its RunSpec."""

    axes: tuple[tuple[str, Any], ...]
    spec: RunSpec

    def axis_dict(self) -> dict[str, Any]:
        return dict(self.axes)

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.axes) or self.spec.label()


@dataclass
class SweepSpec:
    """A declarative sweep: named axes over RunSpec fields + config paths."""

    name: str
    axes: Mapping[str, Sequence]
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # Alnum-led, then alnum/._- only: the name becomes a directory
        # under the sweeps root, so path tricks ('..', '/', '\\') and
        # hidden-file spellings must not pass.
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", self.name or ""):
            raise ValueError(f"sweep name {self.name!r} must be a plain "
                             f"identifier (it names a directory)")
        axes = {}
        for k, v in dict(self.axes).items():
            # A scalar here is almost always a hand-written JSON spec
            # ({"mix_id": 5}); list(5) would crash and list("DCA") would
            # explode into characters — both deserve a usage error.
            if isinstance(v, str) or not isinstance(v, Sequence):
                raise ValueError(
                    f"axis {k!r}: values must be a list, got {v!r} "
                    f"(a single value belongs in base)")
            axes[str(k)] = list(v)
        self.axes = axes
        self.base = dict(self.base)
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            self.axes[axis] = self._validate_axis(axis, values)
        for axis, value in self.base.items():
            self.base[axis] = self._validate_axis(axis, [value])[0]
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ValueError(f"axes also pinned in base: {sorted(overlap)}")
        targets = set(TARGET_AXES) & (set(self.axes) | set(self.base))
        if not targets:
            raise ValueError(
                f"sweep has no workload axis: add one of {TARGET_AXES} "
                f"to axes or base (e.g. base={{'mix_id': 1}})")
        if len(targets) > 1:
            # RunSpec.benchmarks() has a fixed precedence
            # (alone_benchmark > workload > mix_id): combining target
            # axes would silently demote one of them to a mere seed,
            # mislabelling every point's results.
            raise ValueError(
                f"conflicting workload axes {sorted(targets)}: a point's "
                f"benchmarks come from exactly one of {TARGET_AXES}, so "
                f"the others would be silently ignored — split the sweep")

    @staticmethod
    def _validate_axis(axis: str, values: Sequence) -> list:
        """Validate one axis; returns the canonicalised, deduped values."""
        if _is_config_axis(axis):
            canon = _validate_config_axis(axis, values)
        elif axis in RUNSPEC_AXES:
            canon = [_coerce_runspec_value(axis, v) for v in values]
        else:
            raise ValueError(
                f"unknown axis {axis!r}; RunSpec axes: {RUNSPEC_AXES}, "
                f"top-level config scalars: {CONFIG_SCALAR_AXES}, "
                f"or a dotted SystemConfig path like 'queues.read_entries'")
        # Values that collapse after canonicalisation ('dca' + 'DCA')
        # would compile duplicate points sharing one cache entry,
        # overstating the grid; keep first occurrences.
        seen: set = set()
        return [v for v in canon if not (v in seen or seen.add(v))]

    # ------------------------------------------------------------- identity

    def to_dict(self) -> dict:
        return {"name": self.name, "axes": dict(self.axes),
                "base": dict(self.base)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        unknown = set(data) - {"name", "axes", "base"}
        if unknown:
            raise ValueError(f"unknown sweep-spec keys: {sorted(unknown)}")
        return cls(name=data.get("name", "sweep"),
                   axes=data.get("axes", {}), base=data.get("base", {}))

    def sweep_id(self, params: SimParams) -> str:
        """Stable identity of (grid definition, sim params, result schema).

        Any change to the axes, the base, the simulation parameters or the
        result schema produces a different id; ``results.json`` records it
        so two artefacts from different grids are never mistaken for one.
        """
        import dataclasses
        payload = json.dumps(
            [RESULT_SCHEMA_VERSION, self.to_dict(),
             dataclasses.asdict(params)],
            sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ----------------------------------------------------------- compilation

    def compile(self) -> list[SweepPoint]:
        """The full grid, in deterministic axis-declaration order."""
        names = list(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            assignment = dict(self.base)
            assignment.update(zip(names, combo))
            points.append(SweepPoint(
                axes=tuple(zip(names, combo)),
                spec=self._build_spec(assignment)))
        return points

    @staticmethod
    def _build_spec(assignment: Mapping[str, Any]) -> RunSpec:
        spec_kwargs: dict[str, Any] = {}
        overrides: list[tuple[str, Any]] = []
        for key, value in assignment.items():
            if _is_config_axis(key):
                overrides.append((key, value))
            else:
                spec_kwargs[key] = value
        spec_kwargs.setdefault("design", "DCA")
        if overrides:
            spec_kwargs["config"] = tuple(sorted(overrides))
        return RunSpec(**spec_kwargs)

    def shard_points(self, shard: tuple[int, int] = (0, 1)
                     ) -> list[SweepPoint]:
        """This shard's slice of the grid (round-robin, deterministic)."""
        i, n = shard
        if n < 1 or not 0 <= i < n:
            raise ValueError(f"bad shard {i}/{n}: need 0 <= i < n")
        return self.compile()[i::n]
