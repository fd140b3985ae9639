import dataclasses
import json
import math

import pytest

from sensim import machine
from sensim.corpus import gen_jacobi_like
from sensim.machine import (INST_LAT, INST_WINDOW, BranchConfig, CacheLevelConfig, ConfigError,
                            InstructionKind, MachineConfig, Resource, accelerable_parameters,
                            apply_weights, builtin_config, dump_config, load_config)

MINIMAL = '{"resources": [{"name": "p0", "gap": 1}], "window": 4}'


def test_minimal_config_valid():
    cfg = load_config(MINIMAL)
    assert cfg.window_capacity == 4
    assert cfg.resources[0].name == "p0"
    assert cfg.cache_levels == ()
    assert not cfg.branch.enabled


def test_skylake_like_config_loads():
    cfg = load_config(builtin_config("skylake-like"))
    names = [r.name for r in cfg.resources]
    for expected in ("p0156", "p016", "p015", "p01", "p06", "p056", "p23", "p4", "p1"):
        assert expected in names
    assert cfg.frontend_resource == "FRONTEND"
    assert {r.name: r.gap for r in cfg.resources}["FRONTEND"] == 0.25
    assert cfg.window_capacity == 224
    assert [l.name for l in cfg.cache_levels] == ["L1", "L2", "L3", "MEM"]
    assert cfg.cache_levels[-1].is_backstop
    assert "vaddsd-load" in cfg.kinds


@pytest.mark.parametrize("text", [
    "not json",
    '{"window": 4}',
    '{"resources": [{"name": "p0", "gap": 1}, {"name": "p0", "gap": 1}], "window": 4}',
    '{"resources": [{"name": "p0", "gap": 0}], "window": 4}',
    '{"resources": [{"name": "p0", "gap": -1}], "window": 4}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 0}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4, "bogus": 1}',
    '{"resources": [{"name": "INST_LAT", "gap": 1}], "window": 4}',
    '{"resources": [{"name": "X_THR", "gap": 1}], "window": 4}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
    ' "caches": [{"name": "L1", "size": 64, "assoc": 3, "line": 16, "gap": 1}]}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
    ' "caches": [{"name": "L1", "size": 100, "assoc": 2, "line": 16, "gap": 1}]}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
    ' "caches": [{"name": "L2", "size": 128, "assoc": 2, "line": 16, "gap": 1},'
    '            {"name": "L1", "size": 64, "assoc": 2, "line": 16, "gap": 1}]}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
    ' "caches": [{"name": "L1", "size": 64, "assoc": 2, "line": 16, "gap": 1},'
    '            {"name": "L2", "size": 256, "assoc": 2, "line": 32, "gap": 1}]}',
    '{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
    ' "branch": {"enabled": true}}',
])
def test_invalid_configs_rejected(text):
    with pytest.raises(ConfigError):
        load_config(text)


def _one_level(size, assoc, line):
    return json.dumps({"resources": [{"name": "p0", "gap": 1}], "window": 4,
                       "caches": [{"name": "L1", "size": size, "assoc": assoc,
                                   "line": line, "gap": 1}]})


@pytest.mark.parametrize("size", [64 * (2**21 + 1), 2**70])
def test_cache_over_the_line_limit_rejected(size):
    with pytest.raises(ConfigError, match="at most 2097152 lines"):
        load_config(_one_level(size, 1, 64))


def test_cache_at_the_line_limit_loads():
    assert load_config(_one_level(64 * 2**21, 8, 64)).cache_levels[0].total_size == 2**27


def test_cache_at_the_way_limit_loads_and_over_it_is_rejected():
    assert load_config(_one_level(64 * 1024, 1024, 64)).cache_levels[0].associativity == 1024
    with pytest.raises(ConfigError, match="at most 1024 ways"):
        load_config(_one_level(64 * 2048, 2048, 64))


def test_kind_with_unknown_resource_rejected():
    with pytest.raises(ConfigError, match="unknown resource: 'p9'"):
        load_config('{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
                    ' "kinds": {"mul": {"resources": ["p9"], "latency": 1}}}')


def test_unknown_frontend_rejected():
    with pytest.raises(ConfigError, match="unknown resource: 'FE'"):
        load_config('{"resources": [{"name": "p0", "gap": 1}], "window": 4,'
                    ' "frontend": "FE"}')


def test_dump_round_trip():
    cfg = load_config(builtin_config("skylake-like"))
    assert load_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("param", ["p23", INST_WINDOW, "L2_THR"])
def test_accelerated_config_round_trips(param):
    config = apply_weights(gen_jacobi_like(10)[1], {param: 2.0})
    assert load_config(dump_config(config)) == config


def test_dump_rejects_a_latency_scale_it_cannot_write():
    # no config key holds the scale, so a dump would load back at 1.0
    config = apply_weights(gen_jacobi_like(10)[1], {INST_LAT: 2.0})
    assert config.latency_scale == 0.5
    with pytest.raises(ConfigError, match="latency_scale"):
        dump_config(config)


def test_accelerable_parameters_order():
    cfg = load_config(builtin_config("skylake-like"))
    params = accelerable_parameters(cfg)
    assert params[: len(cfg.resources)] == [r.name for r in cfg.resources]
    assert INST_LAT in params and INST_WINDOW in params
    assert params[-3:] == ["L2_THR", "L3_THR", "MEM_THR"]
    assert "L1_THR" not in params


def test_apply_weights_divides_gap():
    cfg = load_config('{"resources": [{"name": "p1", "gap": 1}], "window": 4}')
    out = apply_weights(cfg, {"p1": 2.0})
    assert out.resources[0].gap == 0.5
    assert cfg.resources[0].gap == 1.0  # input untouched


def test_apply_weights_window_rounds_half_up():
    cfg = load_config('{"resources": [{"name": "p0", "gap": 1}], "window": 4}')
    assert apply_weights(cfg, {INST_WINDOW: 2.0}).window_capacity == 8
    assert apply_weights(cfg, {INST_WINDOW: 1.125}).window_capacity == 5  # 4.5 up
    cfg1 = load_config('{"resources": [{"name": "p0", "gap": 1}], "window": 1}')
    assert apply_weights(cfg1, {INST_WINDOW: 1.2}).window_capacity == 1


@pytest.mark.parametrize("window", [4, 10**400], ids=["small", "huge"])
def test_apply_weights_window_stays_finite(window):
    # a window of 2**53 never fills, so the clamp changes no run
    cfg = load_config('{"resources": [{"name": "p0", "gap": 1}], "window": %d}' % window)
    assert apply_weights(cfg, {INST_WINDOW: 1e308}).window_capacity == 2**53
    assert apply_weights(cfg, {INST_WINDOW: 1.5}).window_capacity == min(window * 3 // 2, 2**53)


def test_apply_weights_latency_scale():
    cfg = load_config(MINIMAL)
    out = apply_weights(cfg, {INST_LAT: 4.0})
    assert out.latency_scale == 0.25


def test_apply_weights_cache_levels():
    cfg = load_config(builtin_config("skylake-like"))
    out = apply_weights(cfg, {"L2_THR": 2.0, "MEM_THR": 4.0})
    assert out.cache_levels[1].gap == cfg.cache_levels[1].gap / 2
    assert out.cache_levels[3].gap == cfg.cache_levels[3].gap / 4
    assert out.cache_levels[2].gap == cfg.cache_levels[2].gap


def test_apply_weights_identity():
    cfg = load_config(builtin_config("skylake-like"))
    assert apply_weights(cfg, {}) == cfg
    assert apply_weights(cfg, {"p23": 1.0, INST_LAT: 1.0}) == cfg


def test_apply_weights_composes_multiplicatively():
    cfg = load_config('{"resources": [{"name": "p1", "gap": 1.5}], "window": 4}')
    twice = apply_weights(apply_weights(cfg, {"p1": 2.0}), {"p1": 3.0})
    once = apply_weights(cfg, {"p1": 6.0})
    assert math.isclose(twice.resources[0].gap, once.resources[0].gap, rel_tol=1e-12)


def test_apply_weights_commutes_on_disjoint_keys():
    cfg = load_config(builtin_config("skylake-like"))
    a = apply_weights(apply_weights(cfg, {"p23": 2.0}), {INST_LAT: 3.0})
    b = apply_weights(apply_weights(cfg, {INST_LAT: 3.0}), {"p23": 2.0})
    assert a == b


def test_apply_weights_preserves_resource_ids():
    cfg = load_config(builtin_config("skylake-like"))
    out = apply_weights(cfg, {"p23": 2.0})
    assert [r.gap for r in out.resources] == [r.gap / 2.0 if r.name == "p23" else r.gap
                                              for r in cfg.resources]
    assert [r.name for r in out.resources] == [r.name for r in cfg.resources]


def test_config_fields_are_its_keys_plus_latency_scale():
    # no field a config file cannot set, other than the scale a weight derives
    fields = {f.name for f in dataclasses.fields(MachineConfig)}
    assert fields == {*machine._CONFIG_KEYS.values(), "latency_scale"}


def test_apply_weights_rejects_bad_input():
    cfg = load_config(MINIMAL)
    with pytest.raises(ConfigError, match="unknown accelerable parameter: 'nosuch'"):
        apply_weights(cfg, {"nosuch": 2.0})
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="weight for 'p0' must be a finite number >= 1"):
            apply_weights(cfg, {"p0": bad})


def test_apply_weights_rejects_a_gap_divided_to_zero():
    # a tiny gap is legal in a config; the weight that divides it to 0 is at fault
    cfg = load_config('{"resources": [{"name": "r", "gap": 1e-320}], "window": 4,'
                      ' "caches": [{"name": "L1", "size": 64, "assoc": 1, "line": 64,'
                      ' "gap": 1}, {"name": "MEM", "gap": 1e-320}]}')
    with pytest.raises(ConfigError, match="weight 10000000000.0 for 'r' divides its gap to 0"):
        apply_weights(cfg, {"r": 1e10})
    with pytest.raises(ConfigError, match="for 'MEM_THR' divides its gap to 0"):
        apply_weights(cfg, {"MEM_THR": 1e10})
    assert apply_weights(cfg, {"r": 2.0}).resources[0].gap == 1e-320 / 2


def test_deeply_nested_config_rejected():
    with pytest.raises(ConfigError, match="nested too deeply"):
        load_config("[" * 100_000 + "]" * 100_000)


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        MachineConfig(resources=(Resource("p0", 1.0),), window_capacity=0)
    with pytest.raises(ConfigError):
        MachineConfig(
            resources=(Resource("L1", 1.0),),
            window_capacity=4,
            cache_levels=(CacheLevelConfig("L1", gap=1.0, total_size=64,
                                           associativity=2, line_size=16),))


# a window of 4.5 would never fill, so it would run as an unbounded one, and a
# float cache geometry would fail later with a TypeError
@pytest.mark.parametrize("build", [
    lambda: MachineConfig(resources=(Resource("p0", 1.0),), window_capacity=4.5),
    lambda: MachineConfig(resources=(Resource("p0", 1.0),), window_capacity=True),
    lambda: CacheLevelConfig("L1", gap=1.0, total_size=256.0, associativity=2, line_size=64),
    lambda: CacheLevelConfig("L1", gap=1.0, total_size=256, associativity=True, line_size=64),
    lambda: CacheLevelConfig("L1", gap=1.0, total_size=256, associativity=2, line_size=64.0),
], ids=["window-float", "window-bool", "size-float", "assoc-bool", "line-float"])
def test_integer_fields_reject_other_types(build):
    with pytest.raises(ConfigError, match="integer"):
        build()


def _machine(**parts):
    return MachineConfig(resources=(Resource("p0", 1.0),), **parts)


_L1 = CacheLevelConfig("L1", gap=1.0, total_size=64, associativity=2, line_size=16)


# a kind's resources given as one string were read as one name per character;
# a part of the wrong type in a MachineConfig failed later with an
# AttributeError or a TypeError, or was written under another name.  The last
# rows are values of the right type out of their range
@pytest.mark.parametrize("build,message", [
    (lambda: InstructionKind("k", "p0", 1.0), "resources must be a tuple"),
    (lambda: InstructionKind("k", ("p0", 1), 1.0), "resources must be strings"),
    (lambda: InstructionKind("k", ("p0",), "1"), "latency must be a number"),
    (lambda: InstructionKind(5, ("p0",), 1.0), "kind name 5 must be a string"),
    (lambda: Resource("p0", "1"), "gap must be a number"),
    (lambda: Resource("p0", 10**400), "gap is out of range"),
    (lambda: Resource(5, 1.0), "name 5 must be a string"),
    (lambda: CacheLevelConfig("MEM", gap="4"), "gap must be a number"),
    (lambda: _machine(latency_scale="2"), "latency_scale must be a number"),
    (lambda: _machine(kinds={"k": "x"}), "kinds must map each kind's name"),
    (lambda: _machine(kinds={"a": InstructionKind("b", ("p0",), 1.0)}),
     "kinds must map each kind's name"),
    (lambda: _machine(branch={}), "branch must be a BranchConfig"),
    (lambda: _machine(frontend_resource=["p0"]), "frontend_resource must be a string"),
    (lambda: MachineConfig(resources=(Resource("p0", 1.0), "p1")),
     "resources must be a tuple of Resource values"),
    (lambda: MachineConfig(resources=[Resource("p0", 1.0)]),
     "resources must be a tuple of Resource values"),
    (lambda: _machine(cache_levels=[CacheLevelConfig("MEM", gap=4.0)]),
     "cache_levels must be a tuple of CacheLevelConfig values"),
    (lambda: BranchConfig(enabled="yes"), "enabled must be a boolean"),
    (lambda: BranchConfig(misprediction_penalty=True), "misprediction_penalty must be a number"),
    (lambda: BranchConfig(misprediction_penalty="5"), "misprediction_penalty must be a number"),
    (lambda: BranchConfig(misprediction_penalty=10**400), "misprediction_penalty is out of range"),
    (lambda: CacheLevelConfig("L1", gap=1.0, total_size=96, associativity=1, line_size=48),
     "line size must be a power of two"),
    (lambda: BranchConfig(history_lengths=[4, 8]), "history_lengths must be a tuple"),
    (lambda: BranchConfig(btb_sets=0), "BTB geometry must be at least 1 set and 1 way"),
    (lambda: BranchConfig(btb_ways=0), "BTB geometry must be at least 1 set and 1 way"),
    (lambda: BranchConfig(tage_entries_log2=0), "tage_entries_log2 must be >= 1"),
    (lambda: _machine(latency_scale=0), "latency_scale must be finite and > 0"),
    (lambda: _machine(latency_scale=-1.0), "latency_scale must be finite and > 0"),
    (lambda: _machine(latency_scale=math.inf), "latency_scale must be finite and > 0"),
    (lambda: _machine(latency_scale=math.nan), "latency_scale must be finite and > 0"),
    (lambda: _machine(cache_levels=(_L1, CacheLevelConfig("L1", gap=4.0))),
     "cache level names must be unique"),
    (lambda: _machine(cache_levels=(CacheLevelConfig("MEM", gap=4.0), _L1)),
     "only the last cache level may omit geometry"),
], ids=["kind-resources-string", "kind-resources-int", "kind-latency-string", "kind-name-int",
        "gap-string", "gap-huge-int", "resource-name-int", "level-gap-string",
        "latency-scale-string", "kinds-value-string", "kinds-name-mismatch", "branch-dict",
        "frontend-list", "resources-entry-string", "resources-list", "cache-levels-list",
        "branch-enabled-string", "penalty-bool", "penalty-string", "penalty-huge-int",
        "line-not-power-of-two", "history-list", "btb-sets-zero", "btb-ways-zero",
        "entries-log2-zero", "latency-scale-zero", "latency-scale-negative",
        "latency-scale-inf", "latency-scale-nan", "level-names-repeat",
        "backstop-before-last"])
def test_fields_built_in_python_check_their_types(build, message):
    with pytest.raises(ConfigError, match=message) as err:
        build()
    assert type(err.value) is ConfigError


def test_integer_gap_and_latency_are_stored_as_floats():
    assert type(Resource("p0", 2).gap) is float
    assert type(InstructionKind("k", ("p0",), 3).latency) is float
    assert type(BranchConfig(misprediction_penalty=5).misprediction_penalty) is float


def test_integer_over_the_digit_limit_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config('{"resources": [], "window": %s}' % ("9" * 5000))


@pytest.mark.parametrize("name", ["a,b", "a;b", "a+b", 'a"b', "", " p0", "p0 ", "\tp0"])
@pytest.mark.parametrize("part", ["resource", "cache level"])
def test_names_the_command_line_cannot_carry_rejected(name, part):
    # the CLI splits lists on `,` and groups on `;`, joins subset keys with
    # `+`, writes heatmap names unquoted and strips each listed name
    unsafe = any(c in name for c in ',;+"')
    message = "may not contain any of" if unsafe else "is empty or starts or ends with whitespace"
    with pytest.raises(ConfigError, match=message):
        Resource(name, 1.0) if part == "resource" else CacheLevelConfig(name, gap=1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: InstructionKind("k", ("p0",), -0.5), "latency must be finite and >= 0"),
    (lambda: InstructionKind("k", ("p0",), math.inf), "latency must be finite and >= 0"),
    (lambda: CacheLevelConfig("MEM", gap=0), "gap must be finite and > 0"),
    (lambda: CacheLevelConfig("MEM", gap=math.inf), "gap must be finite and > 0"),
    (lambda: CacheLevelConfig("L1", gap=1.0, line_size=16), "given together or not at all"),
    (lambda: CacheLevelConfig("L1", gap=1.0, total_size=96, associativity=3, line_size=16),
     "associativity must be a power of two"),
    (lambda: BranchConfig(btb_sets=1.5), "must be integers"),
    (lambda: BranchConfig(history_lengths=(4, 8.0)), "must be integers"),
    (lambda: BranchConfig(history_lengths=()), "must be non-empty and start at >= 1"),
    (lambda: BranchConfig(history_lengths=(0, 4)), "must be non-empty and start at >= 1"),
    (lambda: BranchConfig(history_lengths=(4, 4)), "must be strictly increasing"),
    (lambda: BranchConfig(history_lengths=(8, 4)), "must be strictly increasing"),
    (lambda: BranchConfig(tage_tables=3), "tage_tables must match len"),
    (lambda: BranchConfig(tage_tables=4.0), "tage_tables must match len"),
    (lambda: BranchConfig(misprediction_penalty=-1.0), "misprediction_penalty must be finite"),
    (lambda: BranchConfig(misprediction_penalty=math.inf), "misprediction_penalty must be finite"),
], ids=["kind-latency-negative", "kind-latency-inf", "level-gap-zero", "level-gap-inf",
        "level-geometry-partial", "assoc-not-power-of-two", "btb-sets-float",
        "history-length-float", "history-empty", "history-starts-at-0", "history-repeats",
        "history-decreases", "tage-tables-mismatch", "tage-tables-float", "penalty-negative",
        "penalty-inf"])
def test_values_out_of_range_rejected(build, message):
    with pytest.raises(ConfigError, match=message) as err:
        build()
    assert type(err.value) is ConfigError


def test_values_at_the_low_edges_load():
    assert InstructionKind("k", ("p0",), 0.5).latency == 0.5
    assert CacheLevelConfig("L1", gap=1.0, total_size=4, associativity=2, line_size=1).line_size == 1
    branch = BranchConfig(btb_sets=1, btb_ways=1, tage_entries_log2=1, history_lengths=(1, 2),
                          misprediction_penalty=0.5, tage_tables=2)
    assert (branch.btb_sets, branch.btb_ways, branch.tage_entries_log2) == (1, 1, 1)
    assert (branch.history_lengths, branch.misprediction_penalty) == ((1, 2), 0.5)


@pytest.mark.parametrize("limit,over", [
    ({"btb_sets": 1 << 14, "btb_ways": 4}, {"btb_sets": 1 << 14, "btb_ways": 5}),
    ({"tage_entries_log2": 16}, {"tage_entries_log2": 17}),
    ({"history_lengths": tuple(range(1, 33))}, {"history_lengths": tuple(range(1, 34))}),
    ({"history_lengths": (1, 4096)}, {"history_lengths": (1, 4097)}),
], ids=["btb-entries", "tage-entries-log2", "history-count", "history-length"])
def test_branch_tables_at_their_limits_load_and_one_more_is_rejected(limit, over):
    BranchConfig(**limit)
    with pytest.raises(ConfigError, match="branch tables too large"):
        BranchConfig(**over)


def test_every_optional_field_has_its_documented_default():
    # a config file may leave out every key but `resources` and `window`
    cfg = load_config('{"resources": [{"name": "FE", "gap": 1}], "window": 4, "frontend": "FE",'
                      ' "branch": {"enabled": true}}')
    assert cfg.branch == BranchConfig(enabled=True, btb_sets=64, btb_ways=4,
                                      tage_entries_log2=10, history_lengths=(4, 8, 16, 32),
                                      misprediction_penalty=15.0)
    assert (cfg.kinds, cfg.cache_levels, cfg.latency_scale) == ({}, (), 1.0)
    assert MachineConfig(resources=(Resource("p0", 1.0),)).window_capacity == 1


def test_line_size_is_the_first_sized_levels_or_64():
    assert _machine().line_size == 64
    assert _machine(cache_levels=(CacheLevelConfig("MEM", gap=4.0),)).line_size == 64
    assert _machine(cache_levels=(_L1, CacheLevelConfig("MEM", gap=4.0))).line_size == 16


@pytest.mark.parametrize("text,message", [
    ("[]", "config must be an object"),
    ('{"resources": [5], "window": 4}', r"resources\[0\] must be an object"),
    ('{"resources": [{"name": "p0", "gap": 1}], "window": 4, "frontend": null}',
     "config: key 'frontend' may not be null"),
    ('{"resources": [{"name": "p0", "gap": 1}], "window": 4, "branch": {"enabled": null}}',
     "branch: key 'enabled' may not be null"),
])
def test_malformed_objects_name_their_place(text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(text)


def test_dump_writes_two_space_indented_json():
    assert dump_config(load_config(MINIMAL)) == (
        '{\n  "resources": [\n    {\n      "name": "p0",\n      "gap": 1.0\n    }\n  ],\n'
        '  "window": 4,\n  "branch": {\n    "enabled": false,\n    "btb_sets": 64,\n'
        '    "btb_ways": 4,\n    "tage_tables": 4,\n    "tage_entries_log2": 10,\n'
        '    "history_lengths": [\n      4,\n      8,\n      16,\n      32\n    ],\n'
        '    "misprediction_penalty": 15.0\n  }\n}\n')
