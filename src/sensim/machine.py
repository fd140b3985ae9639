"""Machine description: throughput-limited resources, instruction kinds,
instruction window, cache levels and branch predictor parameters, plus the
weight vectors that derive accelerated variants of a configuration.

A configuration is immutable after load; `apply_weights` always returns a
fresh value, so any number of simulation runs can share one config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from math import floor, inf

from .branch import BranchConfig

INST_LAT = "INST_LAT"
INST_WINDOW = "INST_WINDOW"
_THR_SUFFIX = "_THR"
_RESERVED = (INST_LAT, INST_WINDOW)
# characters the sweep and report syntax use: `--resources a,b`, subset keys
# `a+b`, `--subsets a;b`, CSV fields and SVG attributes
_UNSAFE = ',;+"'


class ConfigError(ValueError):
    """Raised for malformed or inconsistent machine configurations."""


def _check_name(name: str) -> None:
    if type(name) is not str:
        raise ConfigError(f"name {name!r} must be a string")
    if any(c in name for c in _UNSAFE):
        raise ConfigError(f"name {name!r} may not contain any of , ; + \"")
    if not name or name != name.strip():
        raise ConfigError(f"name {name!r} is empty or starts or ends with whitespace")


def _as_float(part, field_name: str, context: str) -> float:
    """Store `part.<field_name>`, an int or a float, as a float."""
    value = getattr(part, field_name)
    if type(value) is not float:
        if type(value) is not int:
            raise ConfigError(f"{context}: {field_name} must be a number")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{context}: {field_name} is out of range") from None
        object.__setattr__(part, field_name, value)
    return value


@dataclass(frozen=True)
class Resource:
    """A named throughput-limited resource; `gap` is its inverse throughput.
    Its id is its index in `MachineConfig.resources`."""

    name: str
    gap: float

    def __post_init__(self):
        _check_name(self.name)
        if not 0 < _as_float(self, "gap", f"resource {self.name!r}") < inf:
            raise ConfigError(f"resource {self.name!r}: gap must be finite and > 0")
        if self.name in _RESERVED or self.name.endswith(_THR_SUFFIX):
            raise ConfigError(f"resource name {self.name!r} is reserved")


@dataclass(frozen=True)
class InstructionKind:
    """Mapping from an instruction kind to the resources it consumes.

    `resources` is a multiset: a name may repeat to account for an
    instruction decomposing into several micro-operations on one resource.
    """

    name: str
    resources: tuple[str, ...]
    latency: float

    def __post_init__(self):
        if type(self.name) is not str:
            raise ConfigError(f"kind name {self.name!r} must be a string")
        if type(self.resources) is not tuple:
            raise ConfigError(f"kind {self.name!r}: resources must be a tuple")
        if any(type(r) is not str for r in self.resources):
            raise ConfigError(f"kind {self.name!r}: resources must be strings")
        if not 0 <= _as_float(self, "latency", f"kind {self.name!r}") < inf:
            raise ConfigError(f"kind {self.name!r}: latency must be finite and >= 0")


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the memory hierarchy.

    Levels with geometry (size/associativity/line) behave as set-associative
    caches; a level without geometry always hits and acts as the memory
    backstop (conventionally the last entry, named MEM).  `gap` is the cycles
    consumed per line transferred through the level.
    """

    name: str
    gap: float
    total_size: int | None = None
    associativity: int | None = None
    line_size: int | None = None

    @property
    def is_backstop(self) -> bool:
        return self.total_size is None

    def __post_init__(self):
        _check_name(self.name)
        if not 0 < _as_float(self, "gap", f"cache level {self.name!r}") < inf:
            raise ConfigError(f"cache level {self.name!r}: gap must be finite and > 0")
        geometry = (self.total_size, self.associativity, self.line_size)
        if self.is_backstop:
            if any(v is not None for v in geometry):
                raise ConfigError(
                    f"cache level {self.name!r}: size, assoc and line must be "
                    "given together or not at all")
            return
        if any(type(v) is not int or v <= 0 for v in geometry):
            raise ConfigError(
                f"cache level {self.name!r}: size, assoc and line must be integers > 0")
        if self.line_size & (self.line_size - 1):
            raise ConfigError(f"cache level {self.name!r}: line size must be a power of two")
        if self.associativity & (self.associativity - 1):
            raise ConfigError(
                f"cache level {self.name!r}: associativity must be a power of two")
        if self.total_size % (self.associativity * self.line_size):
            raise ConfigError(
                f"cache level {self.name!r}: size must divide into assoc x line sets")
        if self.total_size // self.line_size > 1 << 21:  # more may not fit in memory
            raise ConfigError(f"cache level {self.name!r}: at most {1 << 21} lines")


@dataclass(frozen=True)
class MachineConfig:
    """The whole modeled machine.  Each part checks its own fields when it
    is built; this checks what spans parts."""

    resources: tuple[Resource, ...]
    kinds: dict[str, InstructionKind] = field(default_factory=dict)
    window_capacity: int = 1
    frontend_resource: str | None = None
    latency_scale: float = 1.0
    cache_levels: tuple[CacheLevelConfig, ...] = ()
    branch: BranchConfig = field(default_factory=BranchConfig)
    _by_name: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {r.name: i for i, r in enumerate(self.resources)})
        if len(self._by_name) != len(self.resources):
            raise ConfigError("resource names must be unique")
        if type(self.window_capacity) is not int:
            raise ConfigError("window capacity must be an integer")
        if self.window_capacity < 1:
            raise ConfigError("window capacity must be >= 1")
        if not 0 < _as_float(self, "latency_scale", "config") < inf:
            raise ConfigError("latency_scale must be finite and > 0")
        refs = [self.frontend_resource] if self.frontend_resource is not None else []
        for name in refs + [r for kind in self.kinds.values() for r in kind.resources]:
            if name not in self._by_name:
                raise ConfigError(f"unknown resource: {name!r}")
        level_names = [l.name for l in self.cache_levels]
        if len(set(level_names)) != len(level_names):
            raise ConfigError("cache level names must be unique")
        for name in level_names:
            if name in self._by_name:
                raise ConfigError(f"cache level {name!r} collides with a resource name")
        if any(l.is_backstop for l in self.cache_levels[:-1]):
            raise ConfigError("only the last cache level may omit geometry")
        sized = [l for l in self.cache_levels if not l.is_backstop]
        if any(b.total_size <= a.total_size for a, b in zip(sized, sized[1:])):
            raise ConfigError("cache levels must be ordered by increasing capacity")
        if len({l.line_size for l in sized}) > 1:
            raise ConfigError("all cache levels must share one line size")
        if self.branch.enabled and self.frontend_resource is None:
            raise ConfigError("branch modeling needs a frontend resource to stall")

    def resource_id(self, name: str) -> int:
        """The resource's index; a KeyError for a name the config lacks."""
        return self._by_name[name]

    @property
    def frontend_id(self) -> int | None:
        if self.frontend_resource is None:
            return None
        return self._by_name[self.frontend_resource]

    @property
    def line_size(self) -> int:
        for level in self.cache_levels:
            if not level.is_backstop:
                return level.line_size
        return 64


def accelerable_parameters(config: MachineConfig) -> list[str]:
    """All names `apply_weights` accepts for this config, in report order."""
    names = [r.name for r in config.resources]
    names += [INST_LAT, INST_WINDOW]
    names += [f"{l.name}{_THR_SUFFIX}" for l in config.cache_levels[1:]]
    return names


def apply_weights(config: MachineConfig, weights: dict[str, float]) -> MachineConfig:
    """Derive the configuration with each named parameter accelerated.

    A weight w >= 1 divides the gap of a throughput resource or cache level,
    divides the global latency scale (INST_LAT), or multiplies the window
    capacity (INST_WINDOW, rounded half-up, floor 1, at most 2**53: no trace
    has that many events, so a larger window behaves the same).  A weight
    that divides a gap to 0 is an error.  The input config is never modified.
    """
    valid = set(accelerable_parameters(config))
    for name, w in weights.items():
        if name not in valid:
            raise ConfigError(f"unknown accelerable parameter: {name!r}")
        if not 1 <= w < inf:
            raise ConfigError(f"weight for {name!r} must be a finite number >= 1, got {w}")

    def divided(part, name):
        if name not in weights:
            return part
        if part.gap / weights[name] == 0.0:
            raise ConfigError(f"weight {weights[name]} for {name!r} divides its gap to 0")
        return replace(part, gap=part.gap / weights[name])

    resources = tuple(divided(r, r.name) for r in config.resources)
    levels = tuple(divided(l, l.name + _THR_SUFFIX) for l in config.cache_levels)
    latency_scale = config.latency_scale
    if INST_LAT in weights:
        latency_scale = latency_scale / weights[INST_LAT]
    capacity = config.window_capacity
    if INST_WINDOW in weights:
        scaled = min(min(capacity, 2**53) * weights[INST_WINDOW], 2.0**53)
        capacity = max(1, floor(scaled + 0.5))
    return replace(config, resources=resources, cache_levels=levels,
                   latency_scale=latency_scale, window_capacity=capacity)


_MISSING = object()


def _get(mapping: dict, key: str, types, context: str, default=_MISSING):
    """mapping[key] checked against `types` (a bool only where `types` is
    bool); `default` when the key is absent, which is an error without one."""
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"{context}: missing key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigError(f"{context}: key {key!r} has the wrong type")
    return value


def _number(mapping: dict, key: str, context: str, default=_MISSING) -> float:
    """mapping[key] as a float; an integer too large for one is an error."""
    try:
        return float(_get(mapping, key, (int, float), context, default))
    except OverflowError:
        raise ConfigError(f"{context}: key {key!r} is out of range") from None


def load_config(text: str) -> MachineConfig:
    """Parse a machine configuration from its JSON text form."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"resources", "frontend", "window", "kinds", "caches", "branch"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown top-level config key {key!r}")

    raw_resources = _get(raw, "resources", list, "config")
    resources = []
    for i, entry in enumerate(raw_resources):
        if not isinstance(entry, dict):
            raise ConfigError(f"resources[{i}] must be an object")
        name = _get(entry, "name", str, f"resources[{i}]")
        gap = _number(entry, "gap", f"resources[{i}]")
        resources.append(Resource(name=name, gap=gap))

    kinds = {}
    for name, entry in _get(raw, "kinds", dict, "config", {}).items():
        if not isinstance(entry, dict):
            raise ConfigError(f"kind {name!r} must be an object")
        res = _get(entry, "resources", list, f"kind {name!r}")
        latency = _number(entry, "latency", f"kind {name!r}")
        kinds[name] = InstructionKind(name=name, resources=tuple(res), latency=latency)

    levels = []
    for i, entry in enumerate(_get(raw, "caches", list, "config", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"caches[{i}] must be an object")
        name = _get(entry, "name", str, f"caches[{i}]")
        gap = _number(entry, "gap", f"caches[{i}]")
        levels.append(CacheLevelConfig(
            name=name, gap=gap,
            total_size=_get(entry, "size", int, f"caches[{i}]", None),
            associativity=_get(entry, "assoc", int, f"caches[{i}]", None),
            line_size=_get(entry, "line", int, f"caches[{i}]", None)))

    branch = BranchConfig()
    if "branch" in raw:
        entry = raw["branch"]
        if not isinstance(entry, dict):
            raise ConfigError("branch must be an object")
        fields = {key: _get(entry, key, int, "branch", getattr(BranchConfig, key))
                  for key in ("btb_sets", "btb_ways", "tage_entries_log2")}
        fields["enabled"] = _get(entry, "enabled", bool, "branch", BranchConfig.enabled)
        fields["misprediction_penalty"] = _number(entry, "misprediction_penalty", "branch",
                                                  BranchConfig.misprediction_penalty)
        lengths = _get(entry, "history_lengths", list, "branch",
                       list(BranchConfig.history_lengths))
        # tage_tables is implied by history_lengths; a given one must agree
        if _get(entry, "tage_tables", int, "branch", len(lengths)) != len(lengths):
            raise ConfigError("branch: tage_tables must match len(history_lengths)")
        try:
            branch = BranchConfig(history_lengths=tuple(lengths), **fields)
        except ValueError as exc:
            # the branch unit imports nothing from this package
            raise ConfigError(str(exc)) from None

    return MachineConfig(
        resources=tuple(resources),
        kinds=kinds,
        window_capacity=_get(raw, "window", int, "config"),
        frontend_resource=_get(raw, "frontend", str, "config", None),
        cache_levels=tuple(levels),
        branch=branch,
    )


def dump_config(config: MachineConfig) -> str:
    """Serialize a configuration back to its JSON text form."""
    doc: dict = {
        "resources": [{"name": r.name, "gap": r.gap} for r in config.resources],
        "window": config.window_capacity,
    }
    if config.frontend_resource is not None:
        doc["frontend"] = config.frontend_resource
    if config.kinds:
        doc["kinds"] = {
            k.name: {"resources": list(k.resources), "latency": k.latency}
            for k in config.kinds.values()}
    if config.cache_levels:
        doc["caches"] = [
            {"name": l.name, "gap": l.gap} if l.is_backstop else
            {"name": l.name, "size": l.total_size, "assoc": l.associativity,
             "line": l.line_size, "gap": l.gap}
            for l in config.cache_levels]
    b = config.branch
    doc["branch"] = {
        "enabled": b.enabled, "btb_sets": b.btb_sets, "btb_ways": b.btb_ways,
        "tage_tables": len(b.history_lengths), "tage_entries_log2": b.tage_entries_log2,
        "history_lengths": list(b.history_lengths),
        "misprediction_penalty": b.misprediction_penalty,
    }
    return json.dumps(doc, indent=2) + "\n"


def builtin_config(name: str) -> str:
    """Text of a configuration shipped with the package (e.g. 'skylake-like')."""
    # imported here: it loads pathlib, tempfile and more, which only
    # set-up needs
    from importlib import resources

    path = resources.files(__package__) / "configs" / f"{name}.cfg"
    return path.read_text(encoding="utf-8")
