import copy
import itertools
import json
import random

import pytest

from oracles import RefTage
from sensim.branch import PredictorState, misprediction_delay
from sensim.machine import BranchConfig, ConfigError, load_config


def drive(state, config, pc, outcomes, target=0x40):
    """Feed a direction sequence through predict/update; returns mispredicts."""
    wrong = 0
    for taken in outcomes:
        pred = state.predict(pc, "conditional")
        if misprediction_delay(pred, taken, target, config):
            wrong += 1
        state.update(pc, taken, target)
    return wrong


def test_cold_state_predicts_not_taken_without_target():
    state = PredictorState(BranchConfig(enabled=True))
    pred = state.predict(0x1234, "conditional")
    assert pred.taken is False
    assert pred.target is None


def test_always_taken_warms_up():
    config = BranchConfig(enabled=True)
    state = PredictorState(config)
    drive(state, config, 0x1234, [True] * 100, target=0x99)
    pred = state.predict(0x1234, "conditional")
    assert pred.taken is True
    assert pred.target == 0x99


def test_period_two_pattern_learned_after_warmup():
    config = BranchConfig(enabled=True)
    state = PredictorState(config)
    outcomes = [i % 2 == 0 for i in range(4000)]
    drive(state, config, 0x2000, outcomes[:2000])
    assert drive(state, config, 0x2000, outcomes[2000:]) == 0


def test_btb_miss_insert_then_hit():
    config = BranchConfig(enabled=True)
    state = PredictorState(config)
    assert state.predict(0x500, "direct").target is None
    state.update(0x500, True, 0x900)
    assert state.predict(0x500, "direct").target == 0x900


def test_btb_lru_eviction_within_set():
    config = BranchConfig(enabled=True, btb_sets=4, btb_ways=2)
    state = PredictorState(config)
    pcs = [4, 8, 12]  # all map to set 0
    pcs = [p * config.btb_sets for p in (1, 2, 3)]
    for i, pc in enumerate(pcs[:2]):
        state.update(pc, True, 0x100 + i)
    state.update(pcs[0], True, 0x100)       # promote first entry
    state.update(pcs[2], True, 0x102)       # evicts the LRU one (pcs[1])
    assert state.predict(pcs[0], "direct").target == 0x100
    assert state.predict(pcs[1], "direct").target is None
    assert state.predict(pcs[2], "direct").target == 0x102


def test_one_way_btb_is_direct_mapped():
    config = BranchConfig(enabled=True, btb_sets=16, btb_ways=1)
    state = PredictorState(config)
    model: dict[int, tuple[int, int]] = {}
    rng = random.Random(2)
    for _ in range(2000):
        pc = rng.randrange(64)
        entry = model.get(pc % 16)
        expected = entry[1] if entry is not None and entry[0] == pc else None
        assert state.predict(pc, "direct").target == expected
        target = 0x1000 + pc
        state.update(pc, True, target)
        model[pc % 16] = (pc, target)


def _state_of(state):
    return copy.deepcopy((state.base, state.tags, state.ctrs, state.useful, state.ghr,
                          state._folds, state.btb))


def test_predict_changes_nothing_and_is_what_update_returns():
    config = _loaded_branch(enabled=True, btb_sets=4, btb_ways=2, tage_entries_log2=4,
                            history_lengths=[2, 5, 9])
    state = PredictorState(config)
    rng = random.Random(5)
    seen = set()
    for _ in range(3000):
        pc = rng.randrange(24)
        ways = state.btb[pc % config.btb_sets]
        held = any(tag == pc for tag, _ in ways)
        seen.add("hit" if held else "evict" if len(ways) == config.btb_ways else "miss")
        before = _state_of(state)
        prediction = state.predict(pc, "conditional")
        assert _state_of(state) == before
        seen.add(("tagged", state._lookup(pc)[1] is not None, prediction.taken))
        assert state.update(pc, rng.random() < 0.6, rng.randrange(1, 512)) == prediction
    assert seen >= {"hit", "miss", "evict", ("tagged", True, True), ("tagged", True, False),
                    ("tagged", False, True), ("tagged", False, False)}


def test_global_history_holds_only_the_longest_length():
    state = PredictorState(_loaded_branch(enabled=True, history_lengths=[2, 3, 5]))
    for taken in [True] * 8 + [False, True, True, False, True]:
        state.update(0x10, taken, 0)
    assert state.ghr == 0b01101  # the last five outcomes, the latest at bit 0


def test_saturated_base_counter_stays_saturated():
    config = BranchConfig(enabled=True)
    state = PredictorState(config)
    idx = 0x77 & state._mask
    state.base[idx] = 3
    state.update(0x77, True, 0)
    assert state.base[idx] == 3


def test_allocation_on_mispredict_without_tagged_hit():
    config = BranchConfig(enabled=True)
    state = PredictorState(config)
    pc = 0x4242
    assert state._lookup(pc)[1] is None  # no tagged hit
    state.update(pc, True, 0)  # base predicts not-taken: mispredict, allocate
    allocated = sum(tag != -1 for table in state.tags for tag in table)
    assert allocated == 1


def test_counters_stay_in_range():
    config = BranchConfig(enabled=True, tage_entries_log2=4)
    state = PredictorState(config)
    rng = random.Random(9)
    for _ in range(5000):
        pc = rng.randrange(256)
        state.predict(pc, "conditional")
        state.update(pc, rng.random() < 0.5, rng.randrange(1, 512))
    assert all(0 <= c <= 3 for c in state.base)
    for table in state.ctrs:
        assert all(0 <= c <= 7 for c in table)
    for ways in state.btb:
        assert len(ways) <= config.btb_ways
        assert len({tag for tag, _ in ways}) == len(ways)


def test_misprediction_delay_cases():
    config = BranchConfig(enabled=True, misprediction_penalty=15.0)
    from sensim.branch import Prediction

    right = Prediction(taken=True, target=0x40)
    assert misprediction_delay(right, True, 0x40, config) == 0.0
    wrong_dir = Prediction(taken=False, target=0x40)
    assert misprediction_delay(wrong_dir, True, 0x40, config) == 15.0
    wrong_target = Prediction(taken=True, target=0x44)
    assert misprediction_delay(wrong_target, True, 0x40, config) == 15.0
    not_taken = Prediction(taken=False, target=None)
    assert misprediction_delay(not_taken, False, 0x40, config) == 0.0


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        PredictorState(BranchConfig(enabled=True, history_lengths=(8, 4, 16, 32)))
    with pytest.raises(ConfigError):
        _loaded_branch(enabled=True, tage_tables=2)
    with pytest.raises(ConfigError, match="must be integers"):
        _loaded_branch(enabled=True, history_lengths=[4, 8.0])


@pytest.mark.parametrize("field", [{"btb_sets": 2.5}, {"btb_ways": True},
                                   {"tage_entries_log2": 4.0}, {"history_lengths": (4, 8.0)}])
def test_non_integer_geometry_rejected(field):
    with pytest.raises(ConfigError, match="must be integers") as err:
        BranchConfig(enabled=True, **field)
    assert type(err.value) is ConfigError


# one fault per row, as a config file writes it (arrays are tuples in Python)
@pytest.mark.parametrize("branch", [
    {"enabled": "yes"},
    {"btb_sets": 64.0},
    {"misprediction_penalty": True},
    {"misprediction_penalty": 10**400},
    {"history_lengths": [4, 16, 8, 32]},
    {"tage_tables": 3},
    {"btb_sets": 2**15, "btb_ways": 4},
], ids=["enabled-string", "btb-sets-float", "penalty-bool", "penalty-huge-int",
        "history-unsorted", "tables-mismatch", "tables-too-large"])
def test_branch_fault_is_one_error_from_a_file_or_python(branch):
    with pytest.raises(ConfigError) as built:
        BranchConfig(**{k: tuple(v) if type(v) is list else v for k, v in branch.items()})
    with pytest.raises(ConfigError) as loaded:
        _loaded_branch(**branch)
    assert type(built.value) is type(loaded.value) is ConfigError
    assert str(built.value) == str(loaded.value)


def _loaded_branch(**branch):
    """The branch unit of a one-resource config loaded from JSON."""
    return load_config(json.dumps({"resources": [{"name": "FE", "gap": 1.0}],
                                   "window": 1, "frontend": "FE",
                                   "branch": branch})).branch


# each just over a limit, plus values whose tables could never be allocated;
# a config at a limit is only loaded, never built
@pytest.mark.parametrize("branch", [
    {"btb_sets": 2**16 + 1, "btb_ways": 1},
    {"btb_sets": 2**15, "btb_ways": 3},
    {"btb_sets": 2**70},
    {"tage_entries_log2": 17},
    {"tage_entries_log2": 63},
    {"history_lengths": list(range(1, 34))},
    {"history_lengths": [4, 8, 16, 4097]},
    {"history_lengths": [4, 8, 16, 2**70]},
])
def test_geometry_over_the_limits_rejected_at_load(branch):
    with pytest.raises(ConfigError, match="branch tables too large"):
        _loaded_branch(enabled=True, **branch)


def test_geometry_at_the_limits_loads():
    branch = _loaded_branch(enabled=True, btb_sets=2**14, btb_ways=4, tage_entries_log2=16,
                            history_lengths=list(range(4065, 4097)))
    assert len(branch.history_lengths) == 32


def _random_geometry(rng):
    return _loaded_branch(enabled=True, btb_sets=rng.choice((1, 2, 8, 64)),
                          btb_ways=rng.choice((1, 2, 4)),
                          tage_entries_log2=rng.randint(1, 4),
                          history_lengths=sorted(rng.sample(range(1, 25),
                                                            rng.randint(1, 5))))


# the folds are shift registers that drop the bit `length` branches back at
# bit `length % width`: lengths just below, at and just above multiples of the
# widths (the default 10-bit index and the 12- and 11-bit tags), the widest
# indexes, and the longest history.  The near multiples and the longest history
# are each alone, so that every misprediction without a tag hit allocates into
# their table; sharing one geometry, the near multiples past the first three
# take no allocation.  Every geometry draws its branches from one seeded
# stream, and in places two to four every table of the wider geometries but
# length 17 takes allocations, so length 17 also comes last, alone.
_NEAR_MULTIPLES = sorted({m * w + d for w in (10, 11, 12) for m in (1, 2, 3) for d in (-1, 0, 1)})
_EDGE_GEOMETRIES = [(10, _NEAR_MULTIPLES[:1]), (12, [11, 12, 13, 1000]), (16, [15, 16, 17]),
                    (16, [4096]), *((10, [length]) for length in _NEAR_MULTIPLES[1:]),
                    (16, [17])]


def test_predictor_matches_reference_tage():
    rng = random.Random(41)
    edges = [_loaded_branch(enabled=True, btb_sets=8, btb_ways=2, tage_entries_log2=bits,
                            history_lengths=lengths) for bits, lengths in _EDGE_GEOMETRIES]
    for config in itertools.chain((_random_geometry(rng) for _ in range(10)), edges):
        state = PredictorState(config)
        ref = RefTage(config.btb_sets, config.btb_ways, config.tage_entries_log2,
                      config.history_lengths)
        # a few pcs in a mostly fixed order, each periodic or random, so tagged
        # entries hit, collide and run out of room (every longer table's slot
        # useful, so all of their useful bits are reset); target 0 is never
        # inserted into the BTB
        pcs = [rng.randrange(1 << 16) for _ in range(rng.randint(2, 8))]
        periods = {pc: rng.randint(1, 6) for pc in pcs}
        # the 4,096-bit history drops its first outcome at branch 4,097
        for step in range(5000 if 4096 in config.history_lengths else 1200):
            pc = pcs[step % len(pcs)] if rng.random() < 0.8 else rng.choice(pcs)
            if periods[pc] > 3:
                taken = rng.random() < 0.5
            else:
                taken = step % (periods[pc] + 1) != 0
            target = rng.choice((0, 0x40, 0x80, pc + 4))
            prediction = state.predict(pc, "conditional")
            assert (prediction.taken, prediction.target) == ref.predict(pc), step
            assert state.update(pc, taken, target) == prediction, step
            ref.update(pc, taken, target)
        assert state.base == ref.base
        assert state.tags == ref.tags
        assert state.ctrs == ref.ctrs
        assert state.useful == ref.useful
        assert state.btb == ref.btb
