import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from oracles import RefTage, RefTimingModel
from randcases import MEMORY_SHAPES, block_case, memory_case, random_config, random_trace
from sensim.caches import line_accesses
from sensim.corpus import gen_jacobi_like, gen_latency_chain, gen_port_block, gen_stream
from sensim.engine import PcStats, build_schedule, run_schedule, simulate
from sensim.machine import (INST_LAT, INST_WINDOW, BranchConfig, CacheLevelConfig,
                            InstructionKind, MachineConfig, Resource, accelerable_parameters,
                            apply_weights, builtin_config, load_config)
from sensim.report import run_report
from sensim.trace import BranchInfo, InstructionEvent, MemAccess, TraceError

PORT_BLOCK_END_TIMES = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4]
MINIMAL_CFG = """
{"resources": [{"name": "p0", "gap": 1}], "window": 4}
"""


def occupancy(result):
    """Each resource's occupancy as the run report gives it."""
    return {name: r["occupancy"] for name, r in run_report(result)["resources"].items()}


def _one_port_config(window=64, gap=1.0, **kwargs):
    return MachineConfig(resources=(Resource("p0", gap),),
                         window_capacity=window, **kwargs)


def test_port_block_golden_timing():
    trace, config = gen_port_block()
    result = simulate(trace, config, record_event_times=True)
    assert list(result.event_end_times) == PORT_BLOCK_END_TIMES
    assert result.total_cycles == 4.0
    assert result.ipc == 3.0


def test_empty_trace():
    result = simulate([], _one_port_config())
    assert result.total_cycles == 0.0
    assert result.instruction_count == 0
    assert result.ipc == 0.0


def test_three_event_register_chain():
    events = [
        InstructionEvent(seq=k, pc=4 * k, resources=("p0",), latency=4.0,
                         reg_reads=(0,), reg_writes=(0,))
        for k in range(3)]
    result = simulate(events, _one_port_config(gap=0.25), record_event_times=True)
    assert list(result.event_end_times) == [4.0, 8.0, 12.0]
    assert result.total_cycles == 12.0


def _window_end_times(capacity, latencies):
    """End times of independent, resource-free events in a window."""
    events = [InstructionEvent(seq=k, pc=4 * k, resources=(), latency=lat)
              for k, lat in enumerate(latencies)]
    result = simulate(events, _one_port_config(window=capacity),
                      record_event_times=True)
    return list(result.event_end_times)


@pytest.mark.parametrize("capacity,latencies,end_times", [
    # never full: the floor stays 0, so every event starts at once
    (4, (1.0, 1.0, 1.0, 2.0), [1.0, 1.0, 1.0, 2.0]),
    # the fifth event evicts the oldest (end 1) and may not start before it
    (4, (1.0, 1.0, 1.0, 2.0, 1.0), [1.0, 1.0, 1.0, 2.0, 2.0]),
    # out-of-order completion: the floor max-merges evictions, so a late
    # first instruction keeps it at 9 after an early one is evicted
    (2, (9.0, 1.0, 1.0, 1.0), [9.0, 1.0, 10.0, 10.0]),
])
def test_window_floor(capacity, latencies, end_times):
    assert _window_end_times(capacity, latencies) == end_times


def test_window_holds_at_most_capacity_in_flight():
    rng = random.Random(6)
    for capacity in (1, 2, 3, 7):
        latencies = [float(rng.randint(0, 9)) for _ in range(60)]
        ends = _window_end_times(capacity, latencies)
        starts = [end - lat for end, lat in zip(ends, latencies)]
        for k in range(capacity, len(ends)):
            assert starts[k] >= max(ends[:k - capacity + 1])


def test_window_capacity_one_serializes():
    events = [InstructionEvent(seq=k, pc=0, resources=(), latency=3.0)
              for k in range(5)]
    config = _one_port_config(window=1)
    result = simulate(events, config, record_event_times=True)
    assert list(result.event_end_times) == [3.0, 6.0, 9.0, 12.0, 15.0]


def test_occupancy_single_event_saturates():
    events = [InstructionEvent(seq=0, pc=0, resources=("p0",), latency=1.0)]
    result = simulate(events, _one_port_config())
    assert occupancy(result) == {"p0": 1.0}


def test_occupancy_port_block():
    trace, config = gen_port_block()
    occ = occupancy(simulate(trace, config))
    # derived by hand from the bundled port column: three uses each for
    # p0/p6 over four cycles, one each for p3/p5
    assert occ == {"p0": 0.75, "p1": 0.5, "p2": 0.5, "p3": 0.25,
                   "p5": 0.25, "p6": 0.75}
    assert all(v <= 1.0 + 1e-9 for v in occ.values())


def test_occupancy_unused_resource_is_zero():
    config = MachineConfig(resources=(Resource("p0", 1.0), Resource("idle", 1.0)),
                           window_capacity=4)
    events = [InstructionEvent(seq=0, pc=0, resources=("p0",), latency=1.0)]
    assert occupancy(simulate(events, config))["idle"] == 0.0


def test_occupancy_of_zero_time_trace_is_zero():
    assert occupancy(simulate([], _one_port_config())) == {"p0": 0.0}


def test_latency_scale_applies_to_every_event():
    events = [InstructionEvent(seq=k, pc=0, resources=(), latency=4.0,
                               reg_reads=(0,), reg_writes=(0,))
              for k in range(10)]
    config = _one_port_config()
    half = apply_weights(config, {INST_LAT: 2.0})
    base = simulate(events, config, record_event_times=True)
    fast = simulate(events, half, record_event_times=True)
    assert [t / 2 for t in base.event_end_times] == list(fast.event_end_times)


def test_register_write_is_renamed_not_merged():
    events = [
        InstructionEvent(seq=0, pc=0, resources=(), latency=10.0, reg_writes=(0,)),
        InstructionEvent(seq=1, pc=4, resources=(), latency=1.0, reg_writes=(0,)),
        InstructionEvent(seq=2, pc=8, resources=(), latency=1.0, reg_reads=(0,)),
    ]
    result = simulate(events, _one_port_config(), record_event_times=True)
    assert list(result.event_end_times) == [10.0, 1.0, 2.0]


def test_memory_write_is_max_merged():
    events = [
        InstructionEvent(seq=0, pc=0, resources=(), latency=10.0,
                         mem_writes=(MemAccess(64, 8),)),
        InstructionEvent(seq=1, pc=4, resources=(), latency=1.0,
                         mem_writes=(MemAccess(64, 8),)),
        InstructionEvent(seq=2, pc=8, resources=(), latency=1.0,
                         mem_reads=(MemAccess(64, 8),)),
    ]
    result = simulate(events, _one_port_config(), record_event_times=True)
    assert list(result.event_end_times) == [10.0, 1.0, 11.0]


def test_store_to_load_dependency_tracks_bytes():
    events = [
        InstructionEvent(seq=0, pc=0, resources=(), latency=5.0,
                         mem_writes=(MemAccess(100, 4),)),
        InstructionEvent(seq=1, pc=4, resources=(), latency=1.0,
                         mem_reads=(MemAccess(102, 2),)),   # overlaps the store
        InstructionEvent(seq=2, pc=8, resources=(), latency=1.0,
                         mem_reads=(MemAccess(104, 2),)),   # adjacent, no overlap
    ]
    result = simulate(events, _one_port_config(), record_event_times=True)
    assert list(result.event_end_times) == [5.0, 6.0, 1.0]


def test_cache_availability_stalls_later_loads():
    levels = (
        CacheLevelConfig("L1", gap=1.0, total_size=256, associativity=2, line_size=64),
        CacheLevelConfig("L2", gap=1.0, total_size=1024, associativity=2, line_size=64),
        CacheLevelConfig("MEM", gap=4.0),
    )
    config = MachineConfig(resources=(Resource("p0", 1.0),), window_capacity=64,
                           cache_levels=levels)
    events = [
        InstructionEvent(seq=0, pc=0, resources=(), latency=1.0,
                         mem_reads=(MemAccess(0, 8),)),
        InstructionEvent(seq=1, pc=4, resources=(), latency=1.0,
                         mem_reads=(MemAccess(4096, 8),)),
    ]
    result = simulate(events, config, record_event_times=True)
    # first (cold) miss sees zero availability; it leaves L2 at 1 and MEM at
    # 4, so the second miss starts at max(1, 4) = 4
    assert list(result.event_end_times) == [1.0, 5.0]
    assert result.cache_stats["MEM"].hits == 2
    assert result.cache_stats["MEM"].transfers == 2


def test_frontend_charged_once_per_instruction():
    config = MachineConfig(
        resources=(Resource("FRONTEND", 0.25), Resource("p0", 1.0)),
        window_capacity=16, frontend_resource="FRONTEND")
    events = [InstructionEvent(seq=k, pc=0, resources=("p0",), latency=1.0)
              for k in range(8)]
    result = simulate(events, config)
    assert result.resource_uses["FRONTEND"] == 8
    assert run_report(result)["resources"]["FRONTEND"]["busy"] == 2.0


def test_frontend_gap_limits_issue_rate():
    config = MachineConfig(resources=(Resource("FRONTEND", 0.5),),
                           window_capacity=64, frontend_resource="FRONTEND")
    events = [InstructionEvent(seq=k, pc=0, resources=(), latency=1.0)
              for k in range(10)]
    result = simulate(events, config, record_event_times=True)
    assert result.event_end_times[-1] == pytest.approx(0.5 * 9 + 1.0)


def test_misprediction_penalty_advances_frontend():
    def run(enabled):
        config = MachineConfig(
            resources=(Resource("FRONTEND", 0.25),),
            window_capacity=16, frontend_resource="FRONTEND",
            branch=BranchConfig(enabled=enabled, misprediction_penalty=15.0))
        events = [
            InstructionEvent(seq=0, pc=0, resources=(), latency=1.0,
                             branch=BranchInfo(kind="conditional", taken=True, target=64)),
            InstructionEvent(seq=1, pc=64, resources=(), latency=1.0),
        ]
        return simulate(events, config, record_event_times=True)

    off = run(False)
    on = run(True)
    assert off.branch_predicted == 0
    assert on.branch_predicted == 1 and on.branch_mispredicted == 1
    # the cold predictor gets the taken branch wrong; the next fetch stalls
    assert on.event_end_times[1] == off.event_end_times[1] + 15.0


def _branch_machine(penalty, enabled=True):
    return MachineConfig(
        resources=(Resource("F", 0.25), Resource("p0", 1.0)), window_capacity=8,
        frontend_resource="F",
        branch=BranchConfig(enabled=enabled, misprediction_penalty=penalty))


def test_a_schedule_stalls_the_frontend_it_was_built_with():
    # three mispredicted records on (F 0.25, p0 1.0): every stall lands on
    # F, whatever frontend the config it runs against names, or none
    config = _branch_machine(15.0)
    trace = [InstructionEvent(pc=4 * k, resources=("p0",), latency=1.0,
                              branch=BranchInfo(kind="conditional", taken=True, target=0))
             for k in range(3)]
    schedule = build_schedule(trace, config)
    assert schedule.counts.branch_mispredicted == 3
    no_frontend = replace(config, frontend_resource=None,
                          branch=replace(config.branch, enabled=False))
    for other in (config, replace(config, frontend_resource="p0"), no_frontend):
        result = run_schedule(schedule, other, record_event_times=True)
        assert result.event_end_times == (1.0, 16.25, 31.5)
        assert result.total_cycles == 31.5


def test_a_misprediction_is_counted_whatever_the_penalty():
    # a loop branch taken 49 times, then falling through: two cold misses and the exit
    loop = [InstructionEvent(pc=0x40, resources=("p0",), latency=1.0,
                             branch=BranchInfo(kind="conditional", taken=k < 49, target=0x40))
            for k in range(50)]
    counts = [build_schedule(loop, _branch_machine(p)).counts for p in (15.0, 0.0)]
    assert [(c.branch_predicted, c.branch_mispredicted) for c in counts] == [(50, 3)] * 2
    rng = random.Random(37)
    for _ in range(20):
        pcs = [rng.randrange(1 << 12) for _ in range(rng.randint(1, 5))]
        trace = []
        for _ in range(rng.randint(1, 300)):
            kind = rng.choice(("none", "conditional", "direct", "indirect"))
            taken = kind == "direct" or kind != "none" and rng.random() < 0.6
            target = rng.choice((0, 0x40, 0x80)) if kind != "none" else 0
            trace.append(InstructionEvent(pc=rng.choice(pcs), resources=("p0",), latency=1.0,
                                          branch=BranchInfo(kind, taken, target)))
        config = _branch_machine(rng.choice((0.0, 15.0)))
        ref = RefTage(config.branch.btb_sets, config.branch.btb_ways,
                      config.branch.tage_entries_log2, config.branch.history_lengths)
        wrong = 0
        for event in trace:
            kind, taken, target = event.branch
            if kind != "none":
                direction, predicted = ref.predict(event.pc)
                wrong += direction != taken or taken and predicted != target
                ref.update(event.pc, taken, target)
        assert build_schedule(trace, config).counts.branch_mispredicted == wrong
        if config.branch.misprediction_penalty == 0.0:  # a free misprediction costs no cycle
            off = simulate(trace, _branch_machine(0.0, enabled=False))
            assert simulate(trace, config).total_cycles == off.total_cycles


def test_resource_spacing_is_exactly_gap():
    config = _one_port_config(window=64, gap=0.75)
    events = [InstructionEvent(seq=k, pc=0, resources=("p0",), latency=0.75)
              for k in range(20)]
    result = simulate(events, config, record_event_times=True)
    starts = [t - 0.75 for t in result.event_end_times]
    deltas = [b - a for a, b in zip(starts, starts[1:])]
    assert all(d == pytest.approx(0.75) for d in deltas)


def test_busy_equals_uses_times_gap_exactly():
    rng = random.Random(1)
    for _ in range(20):
        config = random_config(rng)
        trace = random_trace(rng, config, max_events=60)
        result = simulate(trace, config)
        gaps = {r.name: r.gap for r in config.resources}
        reported = run_report(result)["resources"]
        for name, uses in result.resource_uses.items():
            assert reported[name]["busy"] == uses * gaps[name]


def test_determinism_field_identical():
    rng = random.Random(2)
    config = random_config(rng)
    trace = random_trace(rng, config)
    assert simulate(trace, config, record_event_times=True) == \
        simulate(trace, config, record_event_times=True)


def test_monotone_under_single_accelerations():
    rng = random.Random(3)
    for _ in range(25):
        config = random_config(rng)
        trace = random_trace(rng, config, max_events=80)
        base = simulate(trace, config).total_cycles
        name = rng.choice(accelerable_parameters(config))
        w = 1.0 + 3.0 * rng.random()
        accelerated = simulate(trace, apply_weights(config, {name: w})).total_cycles
        assert accelerated <= base + 1e-9


def _monotonicity_cases():
    """Random machines as generated, and the stream kernel's hierarchy plus an
    enabled branch unit on random branches."""
    rng = random.Random(31)
    for _ in range(12):
        config = random_config(rng)
        yield config, random_trace(rng, config, max_events=80)
    _, stream = gen_stream(1)
    branchy = replace(stream, branch=replace(stream.branch, enabled=True))
    for _ in range(4):
        trace = []
        for event in random_trace(rng, branchy, max_events=80):
            kind = rng.choice(("none", "none", "conditional", "direct", "indirect"))
            if kind != "none":
                event = event._replace(branch=BranchInfo(
                    kind=kind, taken=kind != "conditional" or rng.random() < 0.6,
                    target=0x2000 + 4 * rng.randint(0, 3)))
            trace.append(event)
        yield branchy, trace


def test_time_exactly_non_increasing_in_every_weight():
    # sweeps settle dominated points at the base time without a rerun, which
    # is exact only if this holds with no epsilon at all
    weights = sorted((1.0, 1.01, 1.05, 1.1, 1.15, 1.5, 2.0, 3.7, 16.0))
    for config, trace in _monotonicity_cases():
        schedule = build_schedule(trace, config)
        base = run_schedule(schedule, config).total_cycles
        for name in accelerable_parameters(config):
            times = [run_schedule(schedule, apply_weights(config, {name: w})).total_cycles
                     for w in weights]
            assert times[0] == base, name
            assert all(b <= a for a, b in zip(times, times[1:])), (name, times)


def test_schedule_reuse_matches_fresh_simulation():
    rng = random.Random(4)
    config = random_config(rng)
    trace = random_trace(rng, config)
    schedule = build_schedule(trace, config)
    for name in accelerable_parameters(config)[:4]:
        weighted = apply_weights(config, {name: 1.5})
        assert run_schedule(schedule, weighted) == simulate(trace, weighted)


def test_reruns_share_the_schedule_counts():
    # a rerun computes only what a weight changes: the per-pc, cache and use
    # counts are built once with the schedule and handed to every result
    trace, config = gen_jacobi_like(20)
    schedule = build_schedule(trace, config)
    base = run_schedule(schedule, config)
    fast = run_schedule(schedule, apply_weights(config, {"p23": 2.0}))
    assert fast.total_cycles < base.total_cycles
    assert fast.per_pc is base.per_pc
    assert fast.cache_stats is base.cache_stats
    assert fast.resource_uses is base.resource_uses


def _renamed(parts, old, new):
    return tuple(replace(part, name=new) if part.name == old else part for part in parts)


_L4 = CacheLevelConfig("L4", gap=2.0, total_size=1048576, associativity=8, line_size=64)


@pytest.mark.parametrize("change", [
    lambda c: replace(c, resources=c.resources + (Resource("extra", 1.0),)),
    lambda c: replace(c, cache_levels=c.cache_levels[:2] + c.cache_levels[3:]),
    lambda c: replace(c, cache_levels=c.cache_levels[:3] + (_L4,) + c.cache_levels[3:]),
    lambda c: replace(c, resources=_renamed(c.resources, "p23", "p2")),
    lambda c: replace(c, cache_levels=_renamed(c.cache_levels, "L2", "LL2")),
], ids=["extra-resource", "one-level-fewer", "one-level-more", "renamed-resource",
        "renamed-level"])
def test_run_schedule_rejects_another_machines_schedule(change):
    # the machine is checked by the names of its resources and cache levels
    trace, config = gen_stream(50)
    schedule = build_schedule(trace, config)
    with pytest.raises(ValueError, match="^schedule was built against a different machine$"):
        run_schedule(schedule, change(config))
    accelerated = apply_weights(config, {"p23": 2.0, "L2_THR": 2.0, "INST_WINDOW": 2.0})
    assert run_schedule(schedule, accelerated).total_cycles > 0


def test_shadow_memory_monotone_over_run():
    # a location's dependency timestamp never decreases: later cheaper stores
    # cannot hide an earlier expensive one
    events = []
    seq = 0
    for latency in (9.0, 3.0, 7.0, 1.0):
        events.append(InstructionEvent(seq=seq, pc=0, resources=(), latency=latency,
                                       mem_writes=(MemAccess(0, 1),)))
        seq += 1
        events.append(InstructionEvent(seq=seq, pc=4, resources=(), latency=0.0,
                                       mem_reads=(MemAccess(0, 1),)))
        seq += 1
    result = simulate(events, _one_port_config(), record_event_times=True)
    read_times = list(result.event_end_times)[1::2]
    assert read_times == sorted(read_times)


_L1 = CacheLevelConfig("L1", 1.0, 64, 1, 64)  # one line: each new line evicts the last
_L2 = CacheLevelConfig("L2", 1.0, 128, 1, 64)
_MEM = CacheLevelConfig("MEM", 1.0)
_A, _B = MemAccess(0, 8), MemAccess(64, 8)


def _ev(*resources, latency=0.0, **fields):
    return InstructionEvent(pc=0, resources=resources, latency=latency, **fields)


def _through(resource, **writes):
    """Two events: the second waits for the first's use of `resource`, so
    what it writes is ready at that resource's gap by a path that uses it."""
    return [_ev(resource), _ev(resource, **writes)]


# one two-term tie per site of the timing loop, decided at the last event:
# the events, p0's gap, the window, the cache levels and the parameters the
# first term's path uses (INST_LAT aside)
_TIES = {
    # (1, not p0) is evicted first, then (1, every parameter) ties it
    "window floor": ([*_through("p0"), _ev(latency=1.0), _ev(), _ev(latency=1.0)],
                     1.0, 2, (), {"p0", INST_WINDOW}),
    "register read": ([*_through("p0", reg_writes=(1,)), *_through("p1", reg_writes=(2,)),
                       _ev(latency=1.0, reg_reads=(1, 2))], 1.0, 64, (), {"p0"}),
    "memory read": ([*_through("p0", mem_writes=(_A,)), *_through("p1", mem_writes=(_B,)),
                     _ev(latency=1.0, mem_reads=(_A, _B))], 1.0, 64, (), {"p0"}),
    # after one line crossed both, L2 and MEM are each busy for one cycle
    "cache level": ([_ev(mem_reads=(_A,)), _ev(latency=1.0, mem_reads=(_B,))],
                    1.0, 64, (_L1, _L2, _MEM), {"L2_THR"}),
    "load wait": ([*_through("p0", reg_writes=(1,)), _ev(mem_reads=(_A,)),
                   _ev(latency=1.0, reg_reads=(1,), mem_reads=(_B,))],
                  1.0, 64, (_L1, _MEM), {"p0"}),
    # _A's store waits 2 cycles for p0, and the two misses before the second
    # store to _A keep MEM busy as long
    "fold": ([*_through("p0", mem_writes=(_A,)), _ev(mem_reads=(_B,)), _ev(mem_writes=(_A,)),
              _ev(latency=1.0, mem_reads=(_A,))], 2.0, 64, (_L1, _MEM), {"p0"}),
    "store": ([*_through("p0", mem_writes=(_A,)), *_through("p1", mem_writes=(_A,)),
               _ev(latency=1.0, mem_reads=(_A,))], 1.0, 64, (), {"p0"}),
}


@pytest.mark.parametrize("site", list(_TIES))
def test_each_tie_keeps_its_first_term(site):
    # every tied term's mask is sound, so only `avoided` shows which one won
    events, gap, window, levels, used = _TIES[site]
    config = MachineConfig(resources=(Resource("p0", gap), Resource("p1", 1.0)),
                           window_capacity=window, cache_levels=levels)
    result = simulate(events, config, record_event_times=True)
    *earlier, last = result.event_end_times
    assert result.total_cycles == last > max(earlier)
    assert result.avoided == set(accelerable_parameters(config)) - {INST_LAT, *used}


def _reference_cases():
    """Corpus kernels and randcases machines, widened to reach every term of
    the model: some events store the bytes they load, and on a machine with a
    frontend the branch unit is on and some events branch.  Then each memory
    shape randcases draws apart, loads and stores included."""
    yield gen_port_block()
    yield gen_jacobi_like(30)
    yield gen_stream(60, footprint=4096)
    rng = random.Random(41)
    for _ in range(30):
        config = random_config(rng)
        if config.frontend_resource is not None and rng.random() < 0.6:
            config = replace(config, branch=BranchConfig(
                enabled=True, btb_sets=4, btb_ways=2, tage_entries_log2=4,
                history_lengths=(2, 5), misprediction_penalty=rng.choice((1.5, 15.0))))
        trace = []
        for event in random_trace(rng, config, max_events=120):
            if event.mem_reads and rng.random() < 0.5:
                # the store hits L1 unless two lines of L1's set evict the
                # load's line first, so half the time it stores those too
                acc = event.mem_reads[0]
                way = config.cache_levels[0].total_size // config.cache_levels[0].associativity
                evict = tuple(MemAccess(acc.addr + k * way, 1) for k in (1, 2))
                event = event._replace(mem_writes=rng.choice(((), evict)) + event.mem_reads)
            if config.branch.enabled and rng.random() < 0.4:
                kind = rng.choice(("conditional", "direct", "indirect"))
                event = event._replace(branch=BranchInfo(
                    kind=kind, taken=kind != "conditional" or rng.random() < 0.6,
                    target=0x2000 + 4 * rng.randint(0, 3)))
            trace.append(event)
        yield trace, config
    for shape in MEMORY_SHAPES:
        for _ in range(3):
            yield memory_case(rng, shape)


def test_end_times_match_the_reference_model():
    reached = set()
    for trace, config in _reference_cases():
        runs = [{}] + [{name: w} for name in accelerable_parameters(config)
                       for w in (1.37, 2.0)]
        for weights in runs:
            weighted = apply_weights(config, weights)
            result = simulate(trace, weighted, record_event_times=True)
            assert list(result.event_end_times) == \
                RefTimingModel(weighted).end_times(trace), weights
        if config.frontend_resource is not None:
            reached.add("frontend")
        if any(config.frontend_resource in (e.resources or ()) for e in trace):
            reached.add("the frontend named inline")
        # a step's last field: None, or the ids it uses again and its penalty
        rare = [step[7] for step in build_schedule(trace, config).steps if step[7] is not None]
        if any(extra for extra, _ in rare):
            reached.add("a record that uses one resource twice")
        if any(extra and penalty for extra, penalty in rare):
            reached.add("a branch penalty on such a record")
        if any(c.transfers for c in result.cache_stats.values()):
            reached.add("cache bandwidth")
        if any(e.mem_reads and e.mem_writes[-1:] == e.mem_reads for e in trace):
            reached.add("load and store of the same bytes")
        if result.branch_mispredicted:
            reached.add("branch penalty")
        if config.kinds:
            reached.add("kind table")
        levels = config.cache_levels
        if not levels and any(e.mem_reads for e in trace):
            reached.add("memory traffic without caches")
        if levels and not levels[-1].is_backstop and result.cache_stats[levels[-1].name].misses:
            reached.add("miss at every level" if len(levels) > 1 else "miss at the only level")
    assert reached == {"frontend", "cache bandwidth", "load and store of the same bytes",
                       "branch penalty", "kind table", "memory traffic without caches",
                       "miss at every level", "miss at the only level",
                       "the frontend named inline", "a record that uses one resource twice",
                       "a branch penalty on such a record"}


WINDOW_EDGES = {"one": lambda n: 1, "the trace": lambda n: n, "past the trace": lambda n: n + 1}


@pytest.mark.parametrize("edge", list(WINDOW_EDGES))
def test_windows_at_the_edges_match_the_reference_model(edge):
    # the window starts full of unset entries, so from the trace's length on
    # no eviction raises the floor
    rng = random.Random(29)
    config = replace(random_config(rng), frontend_resource="r0")
    for trace, config in (gen_jacobi_like(8), (random_trace(rng, config, 150), config)):
        config = replace(config, window_capacity=WINDOW_EDGES[edge](len(trace)))
        for weights in [{}] + [{name: 2.0} for name in accelerable_parameters(config)]:
            weighted = apply_weights(config, weights)
            result = simulate(trace, weighted, record_event_times=True)
            assert list(result.event_end_times) == \
                RefTimingModel(weighted).end_times(trace), weights


def test_a_window_of_2_53_entries_holds_no_more_than_the_trace():
    trace, config = gen_jacobi_like(100)
    schedule = build_schedule(trace, config)
    huge = apply_weights(config, {INST_WINDOW: 1e300})
    assert huge.window_capacity == 2**53
    result = run_schedule(schedule, huge, record_event_times=True)
    assert list(result.event_end_times) == RefTimingModel(huge).end_times(trace)
    peaks = []
    for capacity in (1, 2**53):
        tracemalloc.start()
        try:
            run_schedule(schedule, replace(config, window_capacity=capacity))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 64 * len(trace)  # at most a window entry per step


@pytest.mark.parametrize("shape", MEMORY_SHAPES)
def test_block_keys_match_the_byte_keyed_reference(shape):
    """Ranges that straddle lines, overlap and repeat give the reference's
    end times, whose shadow memory has a key per byte, for every parameter."""
    rng = random.Random(71 + MEMORY_SHAPES.index(shape))
    straddles = transfers = 0
    for _ in range(4):
        trace, config = block_case(rng, shape)
        for weights in [{}] + [{name: w} for name in accelerable_parameters(config)
                               for w in (1.01, 2.0, 1e6)]:
            weighted = apply_weights(config, weights)
            result = simulate(trace, weighted, record_event_times=True)
            assert list(result.event_end_times) == \
                RefTimingModel(weighted).end_times(trace), weights
        straddles += sum(len(line_accesses(acc.addr, acc.size, config.line_size)) > 1
                         for e in trace for acc in e.mem_reads + e.mem_writes)
        transfers += sum(c.transfers for c in result.cache_stats.values())
    assert straddles
    assert transfers or shape != "sized last level"  # only there do lines cross a level


def test_shadow_keys_are_the_blocks_no_access_splits():
    # a key is a shadow slot: the registers come first, then each block, in
    # address order
    trace, config = gen_jacobi_like(30)
    schedule = build_schedule(trace, config)
    registers = len({r for e in trace for r in e.reg_reads + e.reg_writes})
    cuts = sorted({a for e in trace for acc in e.mem_reads + e.mem_writes
                   for a in (acc.addr, acc.addr + acc.size)})
    accesses = 0
    for event, step in zip(trace, schedule.steps):
        for side, keys in ((event.mem_reads, step[4]), (event.mem_writes, step[5])):
            assert [acc.size for acc in side] == [8] * len(side)
            # one key per 8-byte access
            assert list(keys) == [registers + cuts.index(acc.addr) for acc in side]
            accesses += len(side)
    assert accesses == 360
    assert schedule.slots == registers + len(cuts)

    # [0,8) and [4,12) cut each other at 4 and 8; [124,132) is cut at the
    # line boundary 128, and each of its lines folds into its own block.
    # [200,350) spans three lines, and the later step reading [310,330) and
    # [315,325), which overlap across the line boundary 320, cuts the folds
    # of its last two lines; that step's lines are already in L1, so it has no op
    levels = (CacheLevelConfig("L1", gap=1.0, total_size=1024, associativity=2, line_size=64),
              CacheLevelConfig("MEM", gap=2.0))
    config = _one_port_config(cache_levels=levels)
    loads = [(MemAccess(0, 8),), (MemAccess(4, 8),), (MemAccess(124, 8),),
             (MemAccess(0, 8), MemAccess(4, 8)), (MemAccess(200, 150),),
             (MemAccess(310, 20), MemAccess(315, 10))]
    events = [InstructionEvent(pc=4 * i, resources=(), latency=1.0, mem_reads=reads)
              for i, reads in enumerate(loads)]
    schedule = build_schedule(events, config)
    steps = schedule.steps
    cuts = [0, 4, 8, 12, 124, 128, 132, 200, 256, 310, 315, 320, 325, 330, 350]
    assert schedule.slots == len(cuts)  # no registers: a block's slot is its index

    def blocks(*starts):
        return [cuts.index(start) for start in starts]

    assert [step[4] for step in steps] == [
        blocks(0, 4), blocks(4, 8), blocks(124, 128), blocks(0, 4, 4, 8),
        blocks(200, 256, 310, 315, 320, 325, 330), blocks(310, 315, 320, 325, 315, 320)]
    assert [step[6] for step in steps] == [
        ((1, blocks(0, 4), True),), (), ((1, blocks(124), True), (1, blocks(128), True)), (),
        ((1, blocks(200), True), (1, blocks(256, 310, 315), True),
         (1, blocks(320, 325, 330), True)), ()]


def test_schedule_build_memory_does_not_grow_with_range_bytes():
    # 200 loads of distinct 4,096-byte ranges: a range's keys are its blocks,
    # so the build holds no entry per byte
    config = load_config(builtin_config("skylake-like"))
    events = [InstructionEvent(pc=4 * i, kind="mov-load", mem_reads=(MemAccess(4099 * i, 4096),))
              for i in range(200)]
    tracemalloc.start()
    try:
        build_schedule(events, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _sharing_cases():
    """Corpus kernels, and a branch-unit machine whose records repeat a few
    values: some load or store, some mispredict."""
    yield gen_port_block()
    yield gen_jacobi_like(20)
    yield gen_latency_chain(30)
    yield gen_stream(40)
    config = MachineConfig(
        resources=(Resource("FRONTEND", 0.25), Resource("p0", 1.0)), window_capacity=8,
        frontend_resource="FRONTEND",
        cache_levels=(CacheLevelConfig("L1", gap=1.0, total_size=256, associativity=2,
                                       line_size=64), CacheLevelConfig("MEM", gap=2.0)),
        branch=BranchConfig(enabled=True, btb_sets=4, btb_ways=2, tage_entries_log2=4,
                            history_lengths=(2, 5), misprediction_penalty=15.0))
    rng = random.Random(7)
    pool = [{}, {"reg_reads": (1,)}, {"mem_reads": (MemAccess(0, 8),)},
            {"mem_writes": (MemAccess(4096, 8),)},
            {"branch": BranchInfo(kind="conditional", taken=True, target=0)}]
    yield [InstructionEvent(pc=4 * rng.randrange(6), resources=("p0",), latency=1.0,
                            **rng.choice(pool)) for _ in range(200)], config


SHARING_CASES = list(_sharing_cases())
SHARING_IDS = ["portblock", "jacobi", "chain", "stream", "branch unit"]


@pytest.mark.parametrize("trace, config", SHARING_CASES, ids=SHARING_IDS)
def test_pcs_with_equal_counts_share_one_uses_dict(trace, config):
    per_pc = build_schedule(trace, config).counts.per_pc
    fresh = build_schedule(trace, config).counts.per_pc  # shares nothing with the first build
    for a in per_pc.values():
        for b in per_pc.values():
            assert (a.resource_uses is b.resource_uses) == (a.resource_uses == b.resource_uses)
        assert a.resource_uses == fresh[a.pc].resource_uses
        assert a.resource_uses is not fresh[a.pc].resource_uses


@pytest.mark.parametrize("trace, config", SHARING_CASES, ids=SHARING_IDS)
def test_equal_memory_free_steps_are_one_object(trace, config):
    steps = build_schedule(trace, config).steps
    free = [step for event, step in zip(trace, steps)
            if not (event.mem_reads or event.mem_writes)]
    for a in free:
        for b in free:
            assert (a is b) == (a == b)
    # a step with key lists is never merged, even with an equal one
    keyed = [step for event, step in zip(trace, steps) if event.mem_reads or event.mem_writes]
    assert len({id(step) for step in keyed}) == len(keyed)


def test_repeated_records_share_their_values():
    # chain: 1,000 pcs of equal counts and 1,000 equal steps
    trace, config = gen_latency_chain(1000)
    schedule = build_schedule(trace, config)
    assert len({id(step) for step in schedule.steps}) == 1
    assert len({id(s.resource_uses) for s in schedule.counts.per_pc.values()}) == 1
    assert schedule.counts.per_pc[0x4000].resource_uses == {"p0": 1, "FRONTEND": 1}
    # pcs that use nothing share one empty dict
    events = [InstructionEvent(pc=4 * k, resources=(), latency=1.0) for k in range(3)]
    per_pc = build_schedule(events, _one_port_config()).counts.per_pc
    assert len({id(s.resource_uses) for s in per_pc.values()}) == 1
    assert per_pc[0].resource_uses == {}
    # two loads of one line: counts that differ only in the last column stay apart
    config = _one_port_config(cache_levels=(
        CacheLevelConfig("L1", gap=1.0, total_size=256, associativity=2, line_size=64),
        CacheLevelConfig("MEM", gap=2.0)))
    events = [InstructionEvent(pc=pc, resources=("p0",), latency=1.0,
                               mem_reads=(MemAccess(0, 8),)) for pc in (0, 4)]
    per_pc = build_schedule(events, config).counts.per_pc
    assert [per_pc[pc].resource_uses for pc in (0, 4)] == [{"p0": 1, "MEM": 1}, {"p0": 1}]
    # the branch-unit machine: mispredicted and plain steps stay apart, and
    # equal loads of one L1 line stay separate objects
    trace, config = SHARING_CASES[-1]
    steps = build_schedule(trace, config).steps
    free = {step for event, step in zip(trace, steps) if not (event.mem_reads or event.mem_writes)}
    # the last field holds the (frontend id, penalty), with the ids used again (none here)
    assert len(free) == 3
    assert {(len(step[2]), step[7]) for step in free} == {(0, None), (0, ((), (0, 15.0))),
                                                          (1, None)}
    loads = [step for event, step in zip(trace, steps) if event.mem_reads and not step[6]]
    assert len(loads) > 2 and all(step == loads[0] for step in loads)
    # equal register tuples map to one tuple of slots, in reads and writes alike
    for trace, config in SHARING_CASES:
        mapped = {}
        for event, step in zip(trace, build_schedule(trace, config).steps):
            assert mapped.setdefault(event.reg_reads, step[2]) is step[2]
            assert mapped.setdefault(event.reg_writes, step[3]) is step[3]


TIMING_FIELDS = ("total_cycles", "ipc", "gaps", "event_end_times", "avoided")
COUNT_FIELDS = ("instruction_count", "resource_uses", "per_pc", "cache_stats",
                "branch_predicted", "branch_mispredicted")


@pytest.mark.parametrize("trace, config", SHARING_CASES, ids=SHARING_IDS)
def test_a_schedules_counts_are_an_untimed_result(trace, config):
    schedule = build_schedule(trace, config)
    assert schedule._fields == ("steps", "counts", "slots")
    # a slot per register, numbered in order of first use, then per block
    registers = list(dict.fromkeys(r for e in trace for r in e.reg_reads + e.reg_writes))
    for event, step in zip(trace, schedule.steps):
        assert step[2:4] == tuple(tuple(map(registers.index, regs))
                                  for regs in (event.reg_reads, event.reg_writes))
        assert all(len(registers) <= s < schedule.slots for keys in step[4:6] for s in keys)
    assert schedule.counts._fields == COUNT_FIELDS + TIMING_FIELDS
    assert schedule.counts.instruction_count == len(schedule.steps) == len(trace)
    assert [getattr(schedule.counts, name) for name in TIMING_FIELDS] == [None] * 5
    per_pc = schedule.counts.per_pc
    assert all(type(stats) is PcStats and stats.pc == pc for pc, stats in per_pc.items())
    assert sum(stats.count for stats in per_pc.values()) == len(trace)


@pytest.mark.parametrize("trace, config", SHARING_CASES, ids=SHARING_IDS)
def test_every_run_holds_the_schedules_count_objects(trace, config):
    schedule = build_schedule(trace, config)
    runs = [run_schedule(schedule, config)] + [
        run_schedule(schedule, apply_weights(config, {name: 2.0}))
        for name in accelerable_parameters(config)]
    for result in runs:
        for name in COUNT_FIELDS:
            value, own = getattr(result, name), getattr(schedule.counts, name)
            assert value is own if isinstance(own, dict) else value == own, name


@pytest.mark.parametrize("trace, config", SHARING_CASES, ids=SHARING_IDS)
def test_two_runs_of_one_schedule_differ_only_in_timing(trace, config):
    schedule = build_schedule(trace, config)
    base = run_schedule(schedule, config, record_event_times=True)
    fast = run_schedule(schedule, apply_weights(config, {INST_LAT: 2.0}))
    unset = dict.fromkeys(TIMING_FIELDS)
    assert base._replace(**unset) == fast._replace(**unset) == schedule.counts
    assert fast.total_cycles < base.total_cycles and fast.event_end_times is None
    assert fast.gaps == base.gaps and base.avoided is not None


@pytest.mark.parametrize("event, message", [
    (InstructionEvent(pc=8, kind="nosuch"), "unknown instruction kind: 'nosuch'"),
    (InstructionEvent(pc=8, resources=("p0", "p9"), latency=1.0), "unknown resource: 'p9'"),
])
def test_a_record_the_machine_cannot_bind_stops_the_build(event, message):
    events = [InstructionEvent(pc=4, resources=("p0",), latency=1.0), event]
    with pytest.raises(TraceError) as raised:
        build_schedule(events, _one_port_config())
    assert str(raised.value) == message and raised.value.line is None


def test_resolve_kind_lookup_appends_frontend():
    cfg = load_config("""
    {"resources": [{"name": "FRONTEND", "gap": 0.25}, {"name": "p016", "gap": 0.34},
                   {"name": "p01", "gap": 0.5}, {"name": "p015", "gap": 0.34},
                   {"name": "p0156", "gap": 0.25}, {"name": "p23", "gap": 0.5}],
     "frontend": "FRONTEND", "window": 8,
     "kinds": {"vaddsd-load":
               {"resources": ["p016", "p01", "p015", "p0156", "p23"], "latency": 4}}}
    """)
    schedule = build_schedule([InstructionEvent(seq=0, pc=0, kind="vaddsd-load")], cfg)
    ids = schedule.steps[0][0]
    assert [cfg.resources[i].name for i in ids] == ["p016", "p01", "p015", "p0156", "p23",
                                                    "FRONTEND"]
    stats = schedule.counts.per_pc[0]
    assert stats.resources == ("p016", "p01", "p015", "p0156", "p23")
    assert stats.latency == 4.0
    assert stats.label == "vaddsd-load"


def test_resolve_inline_with_frontend():
    cfg = load_config("""
    {"resources": [{"name": "FRONTEND", "gap": 0.25}, {"name": "p4", "gap": 1}],
     "frontend": "FRONTEND", "window": 8}
    """)
    ev = InstructionEvent(seq=0, pc=0, resources=("p4",), latency=4.0)
    schedule = build_schedule([ev], cfg)
    assert [cfg.resources[i].name for i in schedule.steps[0][0]] == ["p4", "FRONTEND"]
    stats = schedule.counts.per_pc[0]
    assert stats.resources == ("p4",)
    assert (stats.latency, stats.label) == (4.0, "")


def test_resolve_inline_overrides_kind():
    cfg = load_config("""
    {"resources": [{"name": "p0", "gap": 1}], "window": 4,
     "kinds": {"mul": {"resources": ["p0", "p0"], "latency": 3}}}
    """)
    ev = InstructionEvent(seq=0, pc=0, kind="mul", resources=("p0",), latency=1.0)
    schedule = build_schedule([ev], cfg)
    # one use of p0: no id is used again
    assert schedule.steps[0][0] == (0,) and schedule.steps[0][7] is None
    stats = schedule.counts.per_pc[0]
    assert stats.resources == ("p0",)
    assert stats.latency == 1.0
    assert stats.label == "mul"


def test_resolve_unknown_kind_and_resource():
    cfg = load_config(MINIMAL_CFG)
    with pytest.raises(TraceError, match="unknown instruction kind: 'nosuch'"):
        build_schedule([InstructionEvent(seq=0, pc=0, kind="nosuch")], cfg)
    with pytest.raises(TraceError, match="unknown resource: 'p9'"):
        build_schedule([InstructionEvent(seq=0, pc=0, resources=("p9",), latency=1.0)], cfg)


def test_resolve_is_deterministic():
    cfg = load_config(MINIMAL_CFG)
    ev = InstructionEvent(seq=0, pc=0, resources=("p0", "p0"), latency=2.0)
    first, again = build_schedule([ev], cfg), build_schedule([ev], cfg)
    assert first == again
    # p0 once in the resource pass, then once more as an id used again
    assert first.steps[0][0] == (0,) and first.steps[0][7] == ((0,), None)


def test_a_pc_keeps_its_first_records_zero_latency():
    # the semantics memo merges -0.0 with 0.0, but each pc keeps its own
    # record's zero, and its kind's when the record names a kind
    config = _one_port_config(kinds={"nop": InstructionKind("nop", ("p0",), 0.0)})
    events = [InstructionEvent(pc=0, resources=("p0",), latency=0.0),
              InstructionEvent(pc=4, resources=("p0",), latency=-0.0),
              InstructionEvent(pc=8, kind="nop")]
    per_pc = build_schedule(events, config).counts.per_pc
    assert [math.copysign(1.0, per_pc[pc].latency) for pc in (0, 4, 8)] == [1.0, -1.0, 1.0]


def test_one_key_list_per_distinct_single_line_access():
    # every step of one access shares its key list, and so does the fold of
    # its one line
    levels = (CacheLevelConfig("L1", gap=1.0, total_size=128, associativity=2, line_size=64),
              CacheLevelConfig("MEM", gap=2.0))
    events = [InstructionEvent(pc=4 * i, resources=(), latency=1.0, mem_reads=(MemAccess(8, 4),))
              for i in range(2)]
    schedule = build_schedule(events, _one_port_config(cache_levels=levels))
    first, second = schedule.steps
    # no registers, so the block [8, 12) has slot 0, and its end cut slot 1
    assert first[4] is second[4] and first[4] == [0] and schedule.slots == 2
    (_, fold_keys, _), = first[6]  # the cold load misses L1; the second hits it
    assert fold_keys is first[4] and second[6] == ()


def test_an_overflowed_total_raises():
    events = [InstructionEvent(pc=0, resources=("p0",), latency=1e308, reg_writes=(1,)),
              InstructionEvent(pc=4, resources=("p0",), latency=1e308, reg_reads=(1,))]
    with pytest.raises(ValueError, match="^simulated time overflowed$"):
        simulate(events, _one_port_config())


def test_ipc_of_a_run_shorter_than_one_cycle():
    result = simulate([InstructionEvent(pc=0, resources=("p0",), latency=0.5)], _one_port_config())
    assert (result.total_cycles, result.ipc) == (0.5, 2.0)
