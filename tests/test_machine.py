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
