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


class ConfigError(ValueError):
    """Raised for malformed or inconsistent machine configurations."""


class UnknownResource(LookupError):
    def __init__(self, name: str):
        super().__init__(f"unknown resource: {name!r}")
        self.name = name


class UnknownKind(LookupError):
    def __init__(self, name: str):
        super().__init__(f"unknown instruction kind: {name!r}")
        self.name = name


class UnknownParameter(LookupError):
    def __init__(self, name: str):
        super().__init__(f"unknown accelerable parameter: {name!r}")
        self.name = name


class InvalidWeight(ValueError):
    def __init__(self, name: str, weight: float):
        super().__init__(f"weight for {name!r} must be a finite number >= 1, got {weight}")


@dataclass(frozen=True)
class Resource:
    """A named throughput-limited resource; `gap` is its inverse throughput."""

    id: int
    name: str
    gap: float


@dataclass(frozen=True)
class InstructionKind:
    """Mapping from an instruction kind to the resources it consumes.

    `resources` is a multiset: a name may repeat to account for an
    instruction decomposing into several micro-operations on one resource.
    """

    name: str
    resources: tuple[str, ...]
    latency: float


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

    def validate(self) -> None:
        if not 0 < self.gap < inf:
            raise ConfigError(f"cache level {self.name!r}: gap must be finite and > 0")
        geometry = (self.total_size, self.associativity, self.line_size)
        if self.is_backstop:
            if any(v is not None for v in geometry):
                raise ConfigError(
                    f"cache level {self.name!r}: size, assoc and line must be "
                    "given together or not at all")
            return
        if any(v is None or v <= 0 for v in geometry):
            raise ConfigError(f"cache level {self.name!r}: size, assoc and line must be > 0")
        if self.line_size & (self.line_size - 1):
            raise ConfigError(f"cache level {self.name!r}: line size must be a power of two")
        if self.associativity & (self.associativity - 1):
            raise ConfigError(
                f"cache level {self.name!r}: associativity must be a power of two")
        if self.total_size % (self.associativity * self.line_size):
            raise ConfigError(
                f"cache level {self.name!r}: size must divide into assoc x line sets")


@dataclass(frozen=True)
class MachineConfig:
    """The whole modeled machine."""

    resources: tuple[Resource, ...]
    kinds: dict[str, InstructionKind] = field(default_factory=dict)
    window_capacity: int = 1
    frontend_resource: str | None = None
    latency_scale: float = 1.0
    cache_levels: tuple[CacheLevelConfig, ...] = ()
    branch: BranchConfig = field(default_factory=BranchConfig)
    _by_name: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {r.name: r.id for r in self.resources})
        self._validate()

    def _validate(self) -> None:
        names = [r.name for r in self.resources]
        if len(set(names)) != len(names):
            raise ConfigError("resource names must be unique")
        for i, r in enumerate(self.resources):
            if r.id != i:
                raise ConfigError("resource ids must be dense and in order")
            if not 0 < r.gap < inf:
                raise ConfigError(f"resource {r.name!r}: gap must be finite and > 0")
            if r.name in _RESERVED or r.name.endswith(_THR_SUFFIX):
                raise ConfigError(f"resource name {r.name!r} is reserved")
        if self.window_capacity < 1:
            raise ConfigError("window capacity must be >= 1")
        if self.latency_scale <= 0:
            raise ConfigError("latency_scale must be > 0")
        if self.frontend_resource is not None and self.frontend_resource not in self._by_name:
            raise UnknownResource(self.frontend_resource)
        for kind in self.kinds.values():
            for rname in kind.resources:
                if rname not in self._by_name:
                    raise UnknownResource(rname)
            if not 0 <= kind.latency < inf:
                raise ConfigError(f"kind {kind.name!r}: latency must be finite and >= 0")
        level_names = [l.name for l in self.cache_levels]
        if len(set(level_names)) != len(level_names):
            raise ConfigError("cache level names must be unique")
        line_sizes = set()
        last_size = 0
        for i, level in enumerate(self.cache_levels):
            level.validate()
            if level.name in self._by_name:
                raise ConfigError(f"cache level {level.name!r} collides with a resource name")
            if level.is_backstop:
                if i != len(self.cache_levels) - 1:
                    raise ConfigError("only the last cache level may omit geometry")
            else:
                if level.total_size <= last_size:
                    raise ConfigError("cache levels must be ordered by increasing capacity")
                last_size = level.total_size
                line_sizes.add(level.line_size)
        if len(line_sizes) > 1:
            raise ConfigError("all cache levels must share one line size")
        if self.branch.enabled and self.frontend_resource is None:
            raise ConfigError("branch modeling needs a frontend resource to stall")
        self.branch.validate()

    def resource_id(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownResource(name) from None

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
    capacity (INST_WINDOW, rounded half-up, floor 1).  The input config is
    never modified.
    """
    valid = set(accelerable_parameters(config))
    for name, w in weights.items():
        if name not in valid:
            raise UnknownParameter(name)
        if not 1 <= w < inf:
            raise InvalidWeight(name, w)

    resources = tuple(
        replace(r, gap=r.gap / weights[r.name]) if r.name in weights else r
        for r in config.resources)
    levels = tuple(
        replace(l, gap=l.gap / weights[l.name + _THR_SUFFIX])
        if l.name + _THR_SUFFIX in weights else l
        for l in config.cache_levels)
    latency_scale = config.latency_scale
    if INST_LAT in weights:
        latency_scale = latency_scale / weights[INST_LAT]
    capacity = config.window_capacity
    if INST_WINDOW in weights:
        capacity = max(1, floor(capacity * weights[INST_WINDOW] + 0.5))
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
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
        resources.append(Resource(id=i, name=name, gap=gap))

    kinds = {}
    for name, entry in _get(raw, "kinds", dict, "config", {}).items():
        if not isinstance(entry, dict):
            raise ConfigError(f"kind {name!r} must be an object")
        res = _get(entry, "resources", list, f"kind {name!r}")
        if not all(isinstance(r, str) for r in res):
            raise ConfigError(f"kind {name!r}: resources must be strings")
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
        fields = {
            "enabled": _get(entry, "enabled", bool, "branch", False),
            "btb_sets": _get(entry, "btb_sets", int, "branch", 64),
            "btb_ways": _get(entry, "btb_ways", int, "branch", 4),
            "tage_entries_log2": _get(entry, "tage_entries_log2", int, "branch", 10),
            "misprediction_penalty": _number(entry, "misprediction_penalty", "branch", 15.0),
        }
        lengths = _get(entry, "history_lengths", list, "branch",
                       list(BranchConfig.history_lengths))
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in lengths):
            raise ConfigError("branch: history_lengths must be integers")
        # tage_tables is implied by history_lengths; a given one must agree
        if _get(entry, "tage_tables", int, "branch", len(lengths)) != len(lengths):
            raise ConfigError("branch: tage_tables must match len(history_lengths)")
        branch = BranchConfig(history_lengths=tuple(lengths), **fields)

    window = _get(raw, "window", int, "config")
    try:
        return MachineConfig(
            resources=tuple(resources),
            kinds=kinds,
            window_capacity=window,
            frontend_resource=_get(raw, "frontend", str, "config", None),
            cache_levels=tuple(levels),
            branch=branch,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


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
