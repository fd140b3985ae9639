"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

import contextlib
import random
import time

import pytest

from oracles import LruSet, RefHierarchy
from randcases import random_config, random_trace
from sensim.branch import PredictorState, misprediction_delay
from sensim.caches import CacheHierarchy
from sensim.cli import main
from sensim.corpus import (KERNELS, gen_jacobi_like, gen_latency_chain,
                           gen_port_block, generate)
from sensim.engine import build_schedule, run_schedule, simulate
from sensim.machine import BranchConfig, CacheLevelConfig, accelerable_parameters, apply_weights
from sensim.report import emit_heatmap, render_instruction_table, run_report_json
from sensim.sensitivity import sweep_single


@contextlib.contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:>2}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_port_block_golden_timing():
    with criterion(1, "golden per-event end times of the bundled port block"):
        started = time.monotonic()
        trace, config = gen_port_block()
        result = simulate(trace, config, record_event_times=True)
        assert list(result.event_end_times) == [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4]
        assert result.total_cycles == 4.0
        assert time.monotonic() - started < 1.0


def test_criterion_2_port_block_sensitivity():
    with criterion(2, "only p1 speeds the port block up; others hold at 4"):
        started = time.monotonic()
        trace, config = gen_port_block()
        ports = ["p0", "p1", "p2", "p3", "p5", "p6"]
        report = sweep_single(trace, config, ports, [2.0])
        by_port = {p.parameters[0]: p for p in report.points}
        assert by_port["p1"].time == 3.5
        assert by_port["p1"].speedup > 0
        for port in ("p0", "p2", "p3", "p5", "p6"):
            assert by_port[port].time == 4.0
            assert by_port[port].speedup == 0.0
        # grouped variant: all remaining ports accelerated together
        from sensim.sensitivity import sweep_subsets

        grouped = sweep_subsets(trace, config, [("p0", "p2", "p3", "p5")], 2.0)
        assert grouped.points[0].time == 4.0
        assert time.monotonic() - started < 1.0


def test_criterion_3_jacobi_like_bottleneck():
    with criterion(3, "p23 ranks first on the stencil kernel; table cells match"):
        started = time.monotonic()
        trace, config = gen_jacobi_like(10_000)
        schedule = build_schedule(trace, config)
        base = run_schedule(schedule, config)

        params = accelerable_parameters(config)
        speedups = {}
        for name in params:
            accelerated = run_schedule(schedule, apply_weights(config, {name: 1.01}))
            speedups[name] = base.total_cycles / accelerated.total_cycles - 1
        ranked = sorted(speedups, key=lambda n: -speedups[n])
        assert ranked[0] == "p23"
        assert 0.008 <= speedups["p23"] <= 0.012

        rows = render_instruction_table(base)
        p23_rows = [shares for _, shares in rows if shares.get("p23", 0.0) > 0]
        assert len(p23_rows) == 10
        for shares in p23_rows:
            assert abs(shares["p23"] - 10.0) <= 2.0
        store_rows = [shares for stats, shares in rows if stats.label == "vmovsd-store"]
        assert len(store_rows) == 2
        for shares in store_rows:
            assert abs(shares["p4"] - 20.0) <= 2.0
        for _, shares in rows:
            assert abs(shares["FRONTEND"] - 5.0) <= 2.0
        assert time.monotonic() - started < 10.0


def test_criterion_4_latency_chain():
    with criterion(4, "1000-link chain totals exactly 4000; latency is the only lever"):
        started = time.monotonic()
        trace, config = gen_latency_chain(1000)
        schedule = build_schedule(trace, config)
        assert run_schedule(schedule, config).total_cycles == 4000.0
        for name in accelerable_parameters(config):
            accelerated = run_schedule(schedule, apply_weights(config, {name: 2.0}))
            if name == "INST_LAT":
                assert accelerated.total_cycles == 2000.0
            else:
                assert accelerated.total_cycles == 4000.0
        assert time.monotonic() - started < 1.0


def test_criterion_5_identity_sweep_over_corpus():
    with criterion(5, "weight 1 gives exactly zero speedup on every kernel"):
        small = {"portblock": None, "jacobi": 200, "chain": 200, "stream": 500}
        for name in sorted(KERNELS):
            trace, config = generate(name, iters=small[name])
            report = sweep_single(trace, config, accelerable_parameters(config), [1.0])
            assert report.points, name
            for point in report.points:
                assert point.speedup == 0.0, (name, point)


def test_criterion_6_monotonicity_suite():
    with criterion(6, "100 random traces never slow down under acceleration"):
        rng = random.Random(2024)
        for case in range(100):
            config = random_config(rng, max_resources=6)
            trace = random_trace(rng, config, max_events=200)
            schedule = build_schedule(trace, config)
            base = run_schedule(schedule, config).total_cycles
            name = rng.choice(accelerable_parameters(config))
            weight = 1.0 + 3.0 * rng.random()
            accelerated = run_schedule(
                schedule, apply_weights(config, {name: weight})).total_cycles
            assert accelerated <= base + 1e-9, (case, name, weight)


def test_criterion_7_cache_oracle():
    with criterion(7, "hit/miss equals brute force; 2-way PLRU equals LRU"):
        rng = random.Random(77)
        for _ in range(50):
            line = rng.choice((16, 32, 64))
            geoms = []
            total = 0
            for _ in range(rng.randint(1, 3)):
                assoc = rng.choice((1, 2, 4, 8))
                sets = rng.choice((2, 4, 8, 16))
                while sets * assoc * line <= total:
                    sets *= 2
                total = sets * assoc * line
                geoms.append((total, assoc, line))
            hierarchy = CacheHierarchy(tuple(
                CacheLevelConfig(f"C{i}", gap=1.0, total_size=size,
                                 associativity=assoc, line_size=lsz)
                for i, (size, assoc, lsz) in enumerate(geoms)))
            reference = RefHierarchy(geoms)
            for _ in range(1000):
                addr = line * rng.randrange(4 * total // line)
                assert hierarchy.lookup_and_fill(addr) == reference.access(addr)

        from sensim.caches import CacheLevelState

        level = CacheLevelState(CacheLevelConfig("L1", gap=1.0, total_size=2 * 64 * 16,
                                                 associativity=2, line_size=64))
        refs = [LruSet(2) for _ in range(level.n_sets)]
        for _ in range(10_000):
            addr = 64 * rng.randrange(128)
            si = (addr // 64) % level.n_sets
            before = list(level.sets[si])
            hit = level.access(addr)
            ref_hit, ref_way = refs[si].access(addr)
            assert hit == ref_hit
            if not hit:
                changed = [w for w in range(2) if level.sets[si][w] != before[w]]
                assert changed == [ref_way]


def test_criterion_8_branch_warmup_and_disabled_identity():
    with criterion(8, "period-2 branch under 1% late mispredictions; off = absent"):
        config = BranchConfig(enabled=True)
        state = PredictorState(config)
        pc, target = 0x130B, 0x12BB
        tail_wrong = 0
        for i in range(100_000):
            taken = i % 2 == 0
            prediction = state.predict(pc, "conditional")
            if misprediction_delay(prediction, taken, target, config):
                if i >= 90_000:
                    tail_wrong += 1
            state.update(pc, taken, target)
        assert tail_wrong / 10_000 < 0.01

        trace, kcfg = gen_jacobi_like(100)
        import dataclasses

        disabled = dataclasses.replace(kcfg, branch=BranchConfig(enabled=False))
        absent = dataclasses.replace(kcfg, branch=BranchConfig())
        assert run_report_json(simulate(trace, disabled)) == \
            run_report_json(simulate(trace, absent))


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical reports, repeated and under fan-out"):
        assert main(["gen-kernel", "jacobi", "--iters", "300",
                     "--out", str(tmp_path / "j.trace")]) == 0
        capsys.readouterr()
        outputs = []
        for _ in range(3):
            assert main(["simulate", str(tmp_path / "j.trace"),
                         "--config", str(tmp_path / "j.cfg"),
                         "--report", "json", "--per-instruction"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

        trace, config = gen_jacobi_like(300)
        params = accelerable_parameters(config)
        serial = sweep_single(trace, config, params, [1.05, 1.15], workers=1)
        fanned = sweep_single(trace, config, params, [1.05, 1.15], workers=4)
        again = sweep_single(trace, config, params, [1.05, 1.15], workers=4)
        assert emit_heatmap(serial, "csv") == emit_heatmap(fanned, "csv") \
            == emit_heatmap(again, "csv")
        assert emit_heatmap(fanned, "svg") == emit_heatmap(again, "svg")


@pytest.mark.skip(reason="declared not reproducible at desk scale: the "
                  "published accuracy campaign needs real Skylake hardware "
                  "and third-party analyzers; criteria 1-9 stand in for it")
def test_criterion_10_hardware_campaign():
    pass
