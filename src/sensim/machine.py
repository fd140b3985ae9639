"""Machine description: throughput-limited resources, instruction kinds,
instruction window, cache levels and branch predictor parameters, plus the
weight vectors that derive accelerated variants of a configuration.

A configuration is immutable after load; `apply_weights` always returns a
fresh value, so any number of simulation runs can share one config.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field, replace
from math import floor, inf

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
    if type(value) not in (int, float):
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
            raise ConfigError(f"cache level {self.name!r}: associativity must be a power of two")
        if self.total_size % (self.associativity * self.line_size):
            raise ConfigError(f"cache level {self.name!r}: size must divide into assoc x line sets")
        if self.total_size // self.line_size > 1 << 21:  # more may not fit in memory
            raise ConfigError(f"cache level {self.name!r}: at most {1 << 21} lines")
        if self.associativity > 1 << 10:  # the PLRU touch masks grow with its square
            raise ConfigError(f"cache level {self.name!r}: at most {1 << 10} ways")


@dataclass(frozen=True)
class BranchConfig:
    """Parameters of the modeled branch unit; its state is `branch.PredictorState`.

    Defaults are deliberately small (desk-scale) and the unit is opt-in:
    with enabled=False the simulation is identical to one without any
    branch modeling.  `tage_tables`, implied by `history_lengths`, is
    checked against them when given and not stored.
    """

    enabled: bool = False
    btb_sets: int = 64
    btb_ways: int = 4
    tage_entries_log2: int = 10
    history_lengths: tuple[int, ...] = (4, 8, 16, 32)
    misprediction_penalty: float = 15.0
    tage_tables: InitVar[int | None] = None

    def __post_init__(self, tage_tables):
        if type(self.enabled) is not bool:
            raise ConfigError("branch: enabled must be a boolean")
        if type(self.history_lengths) is not tuple:
            raise ConfigError("branch: history_lengths must be a tuple")
        sizes = (self.btb_sets, self.btb_ways, self.tage_entries_log2, *self.history_lengths)
        if any(type(v) is not int for v in sizes):
            raise ConfigError(
                "branch: BTB sizes, tage_entries_log2 and history_lengths must be integers")
        if self.btb_sets < 1 or self.btb_ways < 1:
            raise ConfigError("branch: BTB geometry must be at least 1 set and 1 way")
        if self.tage_entries_log2 < 1:
            raise ConfigError("branch: tage_entries_log2 must be >= 1")
        if not self.history_lengths or self.history_lengths[0] < 1:
            raise ConfigError("branch: history_lengths must be non-empty and start at >= 1")
        if any(b <= a for a, b in zip(self.history_lengths, self.history_lengths[1:])):
            raise ConfigError("branch: history_lengths must be strictly increasing")
        if tage_tables is not None and (type(tage_tables) is not int
                                        or tage_tables != len(self.history_lengths)):
            raise ConfigError("branch: tage_tables must match len(history_lengths)")
        if not 0 <= _as_float(self, "misprediction_penalty", "branch") < inf:
            raise ConfigError("branch: misprediction_penalty must be finite and >= 0")
        # larger tables may not fit in memory
        if (self.btb_sets * self.btb_ways > 1 << 16 or self.tage_entries_log2 > 16
                or len(self.history_lengths) > 32 or self.history_lengths[-1] > 4096):
            raise ConfigError("branch: branch tables too large: at most 65536 BTB entries, "
                              "tage_entries_log2 16 and 32 history lengths up to 4096")


def _check_entries(values, entry_type: type, name: str) -> None:
    if type(values) is not tuple or any(type(v) is not entry_type for v in values):
        raise ConfigError(f"{name} must be a tuple of {entry_type.__name__} values")


@dataclass(frozen=True)
class MachineConfig:
    """The whole modeled machine.  Each part checks its own fields when it
    is built; this checks that each part has its type, and what spans parts."""

    resources: tuple[Resource, ...]
    kinds: dict[str, InstructionKind] = field(default_factory=dict)
    window_capacity: int = 1
    frontend_resource: str | None = None
    latency_scale: float = 1.0
    cache_levels: tuple[CacheLevelConfig, ...] = ()
    branch: BranchConfig = field(default_factory=BranchConfig)

    def __post_init__(self):
        _check_entries(self.resources, Resource, "resources")
        _check_entries(self.cache_levels, CacheLevelConfig, "cache_levels")
        if type(self.kinds) is not dict or any(
                type(kind) is not InstructionKind or kind.name != name
                for name, kind in self.kinds.items()):
            raise ConfigError("kinds must map each kind's name to its InstructionKind")
        if type(self.branch) is not BranchConfig:
            raise ConfigError("branch must be a BranchConfig")
        if self.frontend_resource is not None and type(self.frontend_resource) is not str:
            raise ConfigError("frontend_resource must be a string")
        names = {r.name for r in self.resources}
        if len(names) != len(self.resources):
            raise ConfigError("resource names must be unique")
        if type(self.window_capacity) is not int:
            raise ConfigError("window capacity must be an integer")
        if self.window_capacity < 1:
            raise ConfigError("window capacity must be >= 1")
        if not 0 < _as_float(self, "latency_scale", "config") < inf:
            raise ConfigError("latency_scale must be finite and > 0")
        refs = [self.frontend_resource] if self.frontend_resource is not None else []
        for name in refs + [r for kind in self.kinds.values() for r in kind.resources]:
            if name not in names:
                raise ConfigError(f"unknown resource: {name!r}")
        level_names = [l.name for l in self.cache_levels]
        if len(set(level_names)) != len(level_names):
            raise ConfigError("cache level names must be unique")
        for name in level_names:
            if name in names:
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

    @property
    def line_size(self) -> int:
        return next((l.line_size for l in self.cache_levels if not l.is_backstop), 64)


def accelerable_parameters(config: MachineConfig) -> list[str]:
    """All names `apply_weights` accepts for this config, in report order."""
    return ([r.name for r in config.resources] + [INST_LAT, INST_WINDOW]
            + [f"{l.name}{_THR_SUFFIX}" for l in config.cache_levels[1:]])


def apply_weights(config: MachineConfig, weights: dict[str, float]) -> MachineConfig:
    """Derive the configuration with each named parameter accelerated.

    A weight w >= 1 divides the gap of a throughput resource or cache level,
    divides the global latency scale (INST_LAT), or multiplies the window
    capacity (INST_WINDOW, rounded half-up, at most 2**53: no trace
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
    latency_scale = config.latency_scale / weights.get(INST_LAT, 1.0)  # x / 1.0 is x
    capacity = config.window_capacity
    if INST_WINDOW in weights:
        scaled = min(min(capacity, 2**53) * weights[INST_WINDOW], 2.0**53)
        capacity = floor(scaled + 0.5)
    return replace(config, resources=resources, cache_levels=levels,
                   latency_scale=latency_scale, window_capacity=capacity)


# each config object's JSON keys and the fields they fill, in the order
# dump_config writes them; a key in _REQUIRED must be given, any other may be
# left out for its field's default
_CONFIG_KEYS = {"resources": "resources", "window": "window_capacity",
                "frontend": "frontend_resource", "kinds": "kinds",
                "caches": "cache_levels", "branch": "branch"}
_RESOURCE_KEYS = {"name": "name", "gap": "gap"}
_KIND_KEYS = {"resources": "resources", "latency": "latency"}
_LEVEL_KEYS = {"name": "name", "size": "total_size", "assoc": "associativity",
               "line": "line_size", "gap": "gap"}
_BRANCH_KEYS = {key: key for key in (
    "enabled", "btb_sets", "btb_ways", "tage_tables", "tage_entries_log2",
    "history_lengths", "misprediction_penalty")}
_REQUIRED = {"resources", "window", "name", "gap", "latency"}


def _decoded(raw, keys: dict[str, str], context: str) -> dict:
    """The fields a JSON object's keys fill, arrays as tuples.  Decodes
    only: the type built from them checks every field."""
    if type(raw) is not dict:
        raise ConfigError(f"{context} must be an object")
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"{context}: unknown key {key!r}")
        if value is None:  # a key is left out, not null, to take its default
            raise ConfigError(f"{context}: key {key!r} may not be null")
    for key in keys:
        if key in _REQUIRED and key not in raw:
            raise ConfigError(f"{context}: missing key {key!r}")
    return {keys[key]: tuple(value) if type(value) is list else value for key, value in raw.items()}


def load_config(text: str) -> MachineConfig:
    """Parse a machine configuration from its JSON text form.  Decodes only:
    the config types check every field."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None
    fields = _decoded(raw, _CONFIG_KEYS, "config")
    if type(fields["resources"]) is tuple:
        fields["resources"] = tuple(
            Resource(**_decoded(part, _RESOURCE_KEYS, f"resources[{i}]"))
            for i, part in enumerate(fields["resources"]))
    if type(fields.get("cache_levels")) is tuple:
        fields["cache_levels"] = tuple(
            CacheLevelConfig(**_decoded(part, _LEVEL_KEYS, f"caches[{i}]"))
            for i, part in enumerate(fields["cache_levels"]))
    if type(fields.get("kinds")) is dict:
        fields["kinds"] = {
            name: InstructionKind(name, **_decoded(part, _KIND_KEYS, f"kind {name!r}"))
            for name, part in fields["kinds"].items()}
    if "branch" in fields:
        fields["branch"] = BranchConfig(**_decoded(fields["branch"], _BRANCH_KEYS, "branch"))
    return MachineConfig(**fields)


def _dumped(part, keys: dict[str, str], **given) -> dict:
    """`part`'s JSON object: each key of its table in order, its value taken
    from `given` or else from the field, tuples as arrays; None is left out."""
    values = ((key, given[key] if key in given else getattr(part, name))
              for key, name in keys.items())
    return {key: list(value) if type(value) is tuple else value
            for key, value in values if value is not None}


def dump_config(config: MachineConfig) -> str:
    """Serialize a configuration back to its JSON text form."""
    if config.latency_scale != 1.0:
        raise ConfigError(f"latency_scale {config.latency_scale} has no config key")
    b = config.branch
    doc = _dumped(
        config, _CONFIG_KEYS,
        resources=[_dumped(r, _RESOURCE_KEYS) for r in config.resources],
        kinds={name: _dumped(k, _KIND_KEYS) for name, k in config.kinds.items()} or None,
        caches=[_dumped(l, _LEVEL_KEYS) for l in config.cache_levels] or None,
        branch=_dumped(b, _BRANCH_KEYS, tage_tables=len(b.history_lengths)))
    return json.dumps(doc, indent=2) + "\n"


def builtin_config(name: str) -> str:
    """Text of a configuration shipped with the package (e.g. 'skylake-like')."""
    # imported here: it loads pathlib, tempfile and more, which only set-up needs
    from importlib import resources

    path = resources.files(__package__) / "configs" / f"{name}.cfg"
    return path.read_text(encoding="utf-8")
