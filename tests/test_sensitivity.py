import os
import random
import signal
from dataclasses import replace

import pytest

import sensim.sensitivity
from randcases import MEMORY_SHAPES, block_case, memory_case, random_config, random_trace
from sensim.corpus import gen_jacobi_like, gen_latency_chain, gen_port_block, gen_stream
from sensim.engine import build_schedule, run_schedule
from sensim.machine import MachineConfig, Resource, accelerable_parameters, apply_weights
from sensim.report import format_sensitivity
from sensim.sensitivity import (DEFAULT_THRESHOLD, DEFAULT_WEIGHTS, SensitivityPoint,
                                SensitivityReport, classify, power_subsets, speedup,
                                sweep_single, sweep_subsets)
from sensim.trace import InstructionEvent

PORTS = ["p0", "p1", "p2", "p3", "p5", "p6"]


def test_speedup_identity():
    assert speedup(4.0, 4.0) == 0.0
    assert speedup(0.0, 0.0) == 0.0  # a zero-cycle run's points gain nothing


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
        resources=(Resource("r0", 1.0), Resource("r1", 1.0)),
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
    assert classify(report) == classify(report, DEFAULT_THRESHOLD) == verdicts


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


def test_power_subsets_larger_than_the_parameters_stop_at_all_of_them():
    # a size past the parameter count adds no subset; `--subsets auto:<k>`
    # must not loop up to a huge k
    assert power_subsets(["a", "b"], 10**10) == [("a",), ("b",), ("a", "b")]


def _brute_force(trace, config, jobs):
    """The report a sweep must give: one rerun for every point, no settling."""
    schedule = build_schedule(trace, config)
    base = run_schedule(schedule, config).total_cycles
    points = []
    for params, w in jobs:
        t = run_schedule(schedule, apply_weights(config, {n: w for n in params})).total_cycles
        points.append(SensitivityPoint(parameters=params, weight=w, time=t,
                                       speedup=speedup(base, t)))
    return SensitivityReport(base_time=base, points=points)


def _reference_cases():
    yield "portblock", gen_port_block()
    yield "jacobi", gen_jacobi_like(20)
    yield "chain", gen_latency_chain(30)
    yield "stream", gen_stream(300)
    yield "stream-l1", gen_stream(300, footprint=8192)
    rng = random.Random(41)
    for k in range(6):
        config = random_config(rng)
        yield f"rand{k}", (random_trace(rng, config, max_events=60), config)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("workers", [1, 2, 3])  # 3 gives uneven strided shares
def test_settled_sweeps_equal_brute_force(workers):
    weights = (1.01, 1.05, 1.10, 1.15, 2.0, 1.0, 1e6)
    descriptors = _open_descriptors()
    for name, (trace, config) in _reference_cases():
        params = accelerable_parameters(config)
        single = sweep_single(trace, config, params, weights, workers=workers)
        assert _open_descriptors() == descriptors, name
        assert single == _brute_force(
            trace, config, [((p,), w) for p in params for w in weights]), name
        subsets = power_subsets(params, 3)
        grouped = sweep_subsets(trace, config, subsets, 1.15, workers=workers)
        assert _open_descriptors() == descriptors, name
        assert grouped == _brute_force(
            trace, config, [(s, 1.15) for s in subsets]), name


@pytest.fixture()
def run_calls(monkeypatch):
    """A list that grows by one per timing run a sweep makes."""
    calls = []

    def counting_run_schedule(*args, **kwargs):
        calls.append(None)
        return run_schedule(*args, **kwargs)

    monkeypatch.setattr(sensim.sensitivity, "run_schedule", counting_run_schedule)
    return calls


def _jacobi_both_branch_settings():
    trace, config = gen_jacobi_like(200)
    yield "jacobi", (trace, config)
    yield "jacobi-branch", (trace, replace(config, branch=replace(config.branch, enabled=True)))


def test_avoided_parameters_are_exact():
    # every subset of the names the base run's path avoids keeps the base
    # total, bit for bit, at any weight
    cases = [("portblock", gen_port_block()), *_jacobi_both_branch_settings(),
             ("stream", gen_stream(500)), ("chain", gen_latency_chain(200))]
    rng = random.Random(43)
    for k in range(10):
        config = random_config(rng)
        cases.append((f"rand{k}", (random_trace(rng, config, max_events=60), config)))
    for shape in MEMORY_SHAPES:
        cases += [(f"memory {shape}", memory_case(rng, shape)),
                  (f"block {shape}", block_case(rng, shape))]
    checked = 0
    for name, (trace, config) in cases:
        schedule = build_schedule(trace, config)
        base = run_schedule(schedule, config)
        for subset in power_subsets(sorted(base.avoided), 3):
            for w in (1.01, 2.0, 1e6):
                accelerated = apply_weights(config, dict.fromkeys(subset, w))
                total = run_schedule(schedule, accelerated).total_cycles
                assert total == base.total_cycles, (name, subset, w)
                checked += 1
    assert checked > 2500


def test_avoided_parameters_are_every_single_that_stays_at_base():
    # on these traces no tie hides a parameter that never moves the total
    cases = [*_jacobi_both_branch_settings(), ("stream", gen_stream(500)),
             ("chain", gen_latency_chain(200))]
    for name, (trace, config) in cases:
        schedule = build_schedule(trace, config)
        base = run_schedule(schedule, config)
        at_base = {p for p in accelerable_parameters(config)
                   if all(run_schedule(schedule, apply_weights(config, {p: w})).total_cycles
                          == base.total_cycles for w in (1.01, 1.15, 2.0, 1e6))}
        assert base.avoided == at_base, name


def test_a_tied_max_keeps_its_first_term(run_calls):
    # p6 never moves portblock's total, yet the base run's path does not
    # avoid it: where p6's term ties another, the max keeps the first, so
    # p6's points rerun
    trace, config = gen_port_block()
    schedule = build_schedule(trace, config)
    base = run_schedule(schedule, config)
    assert base.avoided == {"p0", "p2", "p3", "p5"}
    assert all(run_schedule(schedule, apply_weights(config, {"p6": w})).total_cycles
               == base.total_cycles == 4.0 for w in (1.01, 1.15, 2.0, 1e6))
    params = accelerable_parameters(config)
    sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    assert len(run_calls) == 14
    del run_calls[:]
    sweep_subsets(trace, config, power_subsets(params, 3), 1.15, workers=1)
    assert len(run_calls) == 79


def test_sweep_reruns_only_points_that_can_differ(run_calls):
    # one base run, then one run per point that moves: the base run's path
    # avoids the parameters of every other point, or its config is the base's
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    reference = _brute_force(trace, config,
                             [((p,), w) for p in params for w in DEFAULT_WEIGHTS])
    moved = sum(p.time != reference.base_time for p in reference.points)
    report = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    assert report == reference
    assert len(run_calls) == 1 + moved == 9


def test_subset_sweep_reruns_only_points_that_move(run_calls):
    # the sweep is exact (test_settled_sweeps_equal_brute_force), so its own
    # report says which points moved
    trace, config = gen_jacobi_like(200)
    subsets = power_subsets(accelerable_parameters(config), 3)
    report = sweep_subsets(trace, config, subsets, 1.15, workers=1)
    moved = sum(p.time != report.base_time for p in report.points)
    assert len(report.points) == len(subsets) == 575
    assert len(run_calls) == 1 + moved == 199


def test_a_fanned_out_sweep_reruns_no_share_in_the_parent(run_calls):
    # a child's calls are counted in the child's copy of the list: the parent
    # makes the base run and its half of the 8 points that move, no more
    trace, config = gen_jacobi_like(200)
    sweep_single(trace, config, accelerable_parameters(config), DEFAULT_WEIGHTS, workers=2)
    assert len(run_calls) == 1 + 4


@pytest.mark.parametrize("params, weights", [
    (["p0", "p2", "p3"], [1.5, 2.0]),
    (["p1", "p0"], [2.0]),
], ids=["all-settle", "one-runs"])
def test_no_pool_starts_for_at_most_one_run(monkeypatch, params, weights):
    # on portblock the base run's path avoids p0, p2, p3 and p5, not p1
    trace, config = gen_port_block()
    serial = sweep_single(trace, config, params, weights, workers=1)

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(sensim.sensitivity.os, "fork", no_fork)
    assert sweep_single(trace, config, params, weights, workers=2) == serial


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_childs_share_reruns_in_the_parent(monkeypatch, run_calls, failure):
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    serial = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    del run_calls[:]
    parent = os.getpid()
    counting_run_schedule = sensim.sensitivity.run_schedule

    def failing_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("a child failed")
        return counting_run_schedule(*args, **kwargs)

    monkeypatch.setattr(sensim.sensitivity, "run_schedule", failing_in_a_child)
    assert sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=3) == serial
    # the parent ran the base run and every one of the 8 points that move:
    # a child's calls are counted in the child's copy of the list
    assert len(run_calls) == 9
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_child_never_returns_into_its_caller(monkeypatch, tmp_path):
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    serial = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    parent = os.getpid()
    returned = tmp_path / "returned"

    def failing_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("a child failed")
        return run_schedule(*args, **kwargs)

    monkeypatch.setattr(sensim.sensitivity, "run_schedule", failing_in_a_child)
    try:
        report = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=2)
    finally:
        if os.getpid() != parent:  # a child got back here: note it, then leave
            returned.write_text("")
            os._exit(1)
    assert report == serial
    assert not returned.exists()


def test_a_sweep_runs_serially_by_default(monkeypatch):
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    singles = [(p,) for p in params]
    serial = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    grouped = sweep_subsets(trace, config, singles, 1.15, workers=1)

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(sensim.sensitivity.os, "fork", no_fork)
    assert sweep_single(trace, config, params, DEFAULT_WEIGHTS) == serial
    assert sweep_subsets(trace, config, singles, 1.15) == grouped


def test_a_sweep_without_fork_runs_serially(monkeypatch, run_calls):
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    serial = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    del run_calls[:]
    monkeypatch.delattr(sensim.sensitivity.os, "fork")
    assert sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=3) == serial
    assert len(run_calls) == 9  # the base run and all 8 points that move


def test_a_failed_fork_runs_its_share_in_the_parent(monkeypatch):
    trace, config = gen_jacobi_like(200)
    params = accelerable_parameters(config)
    serial = sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=1)
    descriptors = _open_descriptors()
    fork, forks = os.fork, []

    def failing_second_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("out of processes")
        return fork()

    monkeypatch.setattr(sensim.sensitivity.os, "fork", failing_second_fork)
    assert sweep_single(trace, config, params, DEFAULT_WEIGHTS, workers=3) == serial
    assert len(forks) == 2
    assert _open_descriptors() == descriptors
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_workers_below_one_raise_before_the_trace_is_read():
    def unread_trace():
        raise AssertionError("the trace was read")
        yield

    _, config = gen_port_block()
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}$"):
            sweep_single(unread_trace(), config, PORTS, [2.0], workers=workers)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}$"):
            sweep_subsets(unread_trace(), config, [PORTS], 2.0, workers=workers)


def test_a_failed_parent_share_raises_and_leaves_no_child(monkeypatch):
    trace, config = gen_jacobi_like(200)
    parent = os.getpid()

    def failing_in_the_parent(schedule, run_config, *args):
        if os.getpid() == parent and run_config != config:  # not the base run
            raise RuntimeError("the parent's share failed")
        return run_schedule(schedule, run_config, *args)

    monkeypatch.setattr(sensim.sensitivity, "run_schedule", failing_in_the_parent)
    with pytest.raises(RuntimeError, match="the parent's share failed"):
        sweep_single(trace, config, accelerable_parameters(config), DEFAULT_WEIGHTS,
                     workers=3)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_repeated_points_raise_before_the_trace_is_read(run_calls):
    events, config = gen_port_block()
    for sweep, message in [
            (lambda trace: sweep_subsets(trace, config, [("p1",), ("p1", "p0"), ("p0", "p1")],
                                         2.0),
             "p0\\+p1 at weight 2.0 is swept twice"),
            (lambda trace: sweep_subsets(trace, config, [("p1", "p0", "p1")], 2.0),
             "p1\\+p0\\+p1 at weight 2.0 names a parameter twice"),
            (lambda trace: sweep_single(trace, config, ["p0", "p1", "p0"], [2.0]),
             "p0 at weight 2.0 is swept twice"),
            (lambda trace: sweep_single(trace, config, ["p0"], [1.5, 2, 1.5]),
             "p0 at weight 1.5 is swept twice")]:
        trace = iter(events)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(trace)
        assert next(trace) is events[0]  # not one record was read
    assert run_calls == []


def test_bad_weight_raises_even_where_its_point_would_settle():
    # the base run's path avoids p0, so both points would settle, but a
    # weight below 1 breaks the monotonicity that settling rests on
    trace, config = gen_port_block()
    with pytest.raises(ValueError, match="weight for 'p0'"):
        sweep_single(trace, config, ["p0"], [2.0, 0.5])


def test_an_unclassified_report_formats_without_verdicts():
    trace, config = gen_port_block()
    report = sweep_single(trace, config, ["p1"], [2.0], workers=1)
    assert report.verdicts == []
    assert format_sensitivity(report) == "base time 4\n\n"
