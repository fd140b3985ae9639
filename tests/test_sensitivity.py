import random

import pytest

from randcases import random_config, random_trace
from sensim.corpus import gen_port_block
from sensim.machine import MachineConfig, Resource, accelerable_parameters
from sensim.sensitivity import (classify, power_subsets, speedup, sweep_single,
                                sweep_subsets)
from sensim.trace import InstructionEvent

PORTS = ["p0", "p1", "p2", "p3", "p5", "p6"]


def test_speedup_identity():
    assert speedup(4.0, 4.0) == 0.0


def test_speedup_of_continuous_port_acceleration():
    assert speedup(4.0, 3.5) == pytest.approx(0.14285714285714285)


def test_speedup_one_cycle_saved_of_four():
    assert speedup(4.0, 3.0) == pytest.approx(1 / 3)


def test_speedup_rejects_nonpositive():
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)


def test_port_block_sweep_only_p1_helps():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, PORTS, [2.0])
    assert report.base_time == 4.0
    by_param = {p.parameters[0]: p for p in report.points}
    assert by_param["p1"].time == 3.5
    assert by_param["p1"].speedup == pytest.approx(1 / 7)
    for port in ("p0", "p2", "p3", "p5", "p6"):
        assert by_param[port].time == 4.0
        assert by_param[port].speedup == 0.0


def test_port_block_group_acceleration_stays_at_four():
    trace, config = gen_port_block()
    report = sweep_subsets(trace, config, [("p0", "p2", "p3", "p5"), ("p6",)], 2.0)
    assert all(p.time == 4.0 and p.speedup == 0.0 for p in report.points)


def test_identity_weights_give_zero_speedups():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, accelerable_parameters(config), [1.0])
    assert all(p.speedup == 0.0 for p in report.points)


def test_singleton_subset_equals_single_sweep():
    trace, config = gen_port_block()
    single = sweep_single(trace, config, ["p1"], [2.0]).points[0]
    subset = sweep_subsets(trace, config, [("p1",)], 2.0).points[0]
    assert single == subset


def test_empty_subset_list_reports_base_only():
    trace, config = gen_port_block()
    report = sweep_subsets(trace, config, [], 2.0)
    assert report.base_time == 4.0
    assert report.points == []


def test_balanced_pair_only_speeds_up_together():
    config = MachineConfig(
        resources=(Resource(0, "r0", 1.0), Resource(1, "r1", 1.0)),
        window_capacity=64)
    events = [InstructionEvent(seq=k, pc=0, resources=("r0", "r1"), latency=1.0)
              for k in range(400)]
    report = sweep_subsets(events, config, [("r0",), ("r1",), ("r0", "r1")], 1.15)
    by_key = {p.parameters: p.speedup for p in report.points}
    assert by_key[("r0",)] == pytest.approx(0.0, abs=0.01)
    assert by_key[("r1",)] == pytest.approx(0.0, abs=0.01)
    assert by_key[("r0", "r1")] == pytest.approx(0.15, abs=0.01)


def test_points_ordered_by_parameter_then_weight():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, ["p1", "p0"], [1.5, 2.0])
    keys = [(p.parameters, p.weight) for p in report.points]
    assert keys == [(("p1",), 1.5), (("p1",), 2.0), (("p0",), 1.5), (("p0",), 2.0)]


def test_speedup_nondecreasing_in_weight():
    rng = random.Random(21)
    for _ in range(10):
        config = random_config(rng)
        trace = random_trace(rng, config, max_events=60)
        name = rng.choice(accelerable_parameters(config))
        report = sweep_single(trace, config, [name], [1.0, 1.3, 2.0, 3.5])
        speedups = [p.speedup for p in report.points]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))


def test_superset_dominance():
    rng = random.Random(22)
    for _ in range(10):
        config = random_config(rng)
        trace = random_trace(rng, config, max_events=60)
        params = accelerable_parameters(config)
        subset = tuple(rng.sample(params, min(len(params), rng.randint(2, 3))))
        report = sweep_subsets(trace, config,
                               [subset] + [(p,) for p in subset], 1.5)
        by_key = {p.parameters: p.speedup for p in report.points}
        for p in subset:
            assert by_key[subset] >= by_key[(p,)] - 1e-9


def test_classify_threshold_and_order():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, PORTS, [2.0])
    verdicts = classify(report, threshold=0.01)
    flagged = [v.parameters for v in verdicts if v.is_bottleneck]
    assert flagged == [("p1",)]
    assert verdicts[0].parameters == ("p1",)
    speedups = [v.speedup for v in verdicts]
    assert speedups == sorted(speedups, reverse=True)


def test_classify_all_zero_finds_nothing():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, PORTS, [1.0])
    assert not any(v.is_bottleneck for v in classify(report, 0.01))


@pytest.mark.parametrize("threshold", [-0.01, float("nan"), float("inf")])
def test_classify_rejects_bad_threshold(threshold):
    trace, config = gen_port_block()
    report = sweep_single(trace, config, PORTS, [2.0])
    with pytest.raises(ValueError):
        classify(report, threshold)


def test_worker_fanout_is_deterministic():
    trace, config = gen_port_block()
    serial = sweep_single(trace, config, PORTS, [1.5, 2.0], workers=1)
    forked = sweep_single(trace, config, PORTS, [1.5, 2.0], workers=3)
    again = sweep_single(trace, config, PORTS, [1.5, 2.0], workers=3)
    assert serial.points == forked.points == again.points


def test_power_subsets_capped():
    assert power_subsets(["a", "b", "c"], 2) == [
        ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")]
    with pytest.raises(ValueError):
        power_subsets([f"p{i}" for i in range(30)], 3)
