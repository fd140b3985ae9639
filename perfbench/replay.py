"""Traced in-process replay of one workload, layer by layer.

Calls sensim's public functions in the order the CLI does (`simulate`, then
`sensitivity`), wrapping each layer call in a span, and then re-drives the
trace through the cache and branch layers on their own so their cost and
their counts are measured where the work happens.  It prints one JSON object:
per-layer metrics, the spans, the gate's checks and the output digests.

    PYTHONPATH=src python3 perfbench/replay.py --trace jacobi.trace \
        --config jacobi.cfg --workers 2 --generator jacobi --iters 1000 --seed 0

Run it in a fresh process: the RSS deltas it reports assume nothing else has
grown the heap first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

_T_IMPORT = time.perf_counter()
from sensim import (CacheHierarchy, PredictorState, accelerable_parameters,  # noqa: E402
                    apply_weights, build_schedule, classify, emit_heatmap,
                    line_accesses, load_config, misprediction_delay, parse_trace,
                    render_instruction_table, run_report_json, run_schedule,
                    sweep_single, write_trace)
from sensim.corpus import generate as corpus_generate  # noqa: E402
from sensim.report import format_sensitivity  # noqa: E402
from sensim.sensitivity import DEFAULT_THRESHOLD, DEFAULT_WEIGHTS  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def first(self, name: str) -> float:
        return self.durations(name)[0]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile); with 10 samples or fewer there is no such
    percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def replay_caches(events, config) -> tuple[int, list[tuple[str, int, int]]]:
    """Every line the trace touches, loads then stores, through fresh caches."""
    if not config.cache_levels:
        return 0, []
    hierarchy = CacheHierarchy(config.cache_levels)
    lookup = hierarchy.lookup_and_fill
    line_size = config.line_size
    lookups = 0
    for event in events:
        for acc in (*event.mem_reads, *event.mem_writes):
            for line in line_accesses(acc.addr, acc.size, line_size):
                lookup(line)
                lookups += 1
    return lookups, [(lv.name, lv.hits, lv.misses) for lv in hierarchy.levels]


def replay_branches(events, config) -> tuple[int, int]:
    """(branches, mispredictions) from the branch unit driven alone."""
    if not config.branch.enabled:
        return 0, 0
    state = PredictorState(config.branch)
    branches = mispredicted = 0
    for event in events:
        b = event.branch
        if b.kind == "none":
            continue
        prediction = state.predict(event.pc, b.kind)
        if misprediction_delay(prediction, b.taken, b.target, config.branch):
            mispredicted += 1
        state.update(event.pc, b.taken, b.target)
        branches += 1
    return branches, mispredicted


def generate(generator: str, iters: int, seed: int):
    if generator == "stream-mix":
        import streammix
        return streammix.generate(seed, iters)
    return corpus_generate(generator, iters=iters)


def replay(trace_path: str, config_path: str, workers: int, generator: str,
           iters: int, seed: int) -> dict:
    tr = Tracer()
    checks: dict[str, bool] = {}

    # `sensim simulate T --config C --report json --per-instruction`
    with tr.span("cli.simulate"):
        rss0 = rss_mb()
        with tr.span("trace.parse"), open(trace_path, encoding="utf-8") as fh:
            events = list(parse_trace(fh))
        parse_rss = rss_mb() - rss0
        with tr.span("machine.load_config"), open(config_path, encoding="utf-8") as fh:
            config = load_config(fh.read())
        rss0 = rss_mb()
        with tr.span("engine.build_schedule"):
            schedule = build_schedule(events, config)
        build_rss = rss_mb() - rss0
        with tr.span("engine.run_schedule"):
            result = run_schedule(schedule, config)
        rss0 = rss_mb()
        with tr.span("report.table"):
            rows = render_instruction_table(result) if result.total_cycles > 0 else []
            sim_out = run_report_json(result, rows)
        table_rss = rss_mb() - rss0
        del rows

    # `sensim sensitivity T --config C --resources all --workers N`
    params = accelerable_parameters(config)
    with tr.span("cli.sensitivity"):
        with tr.span("trace.parse"), open(trace_path, encoding="utf-8") as fh:
            sens_events = list(parse_trace(fh))
        with tr.span("machine.load_config"), open(config_path, encoding="utf-8") as fh:
            sens_config = load_config(fh.read())
        with tr.span("sensitivity.sweep"):
            report = sweep_single(sens_events, sens_config, params, DEFAULT_WEIGHTS,
                                  workers=workers)
        with tr.span("sensitivity.classify"):
            report.verdicts = classify(report, DEFAULT_THRESHOLD)
        with tr.span("report.sensitivity"):
            heatmap = emit_heatmap(report, "csv")
            sens_out = format_sensitivity(report) + heatmap
        del sens_events, sens_config
    checks["base_time_equals_simulate_total"] = report.base_time == result.total_cycles

    # The sweep's reruns one at a time: the serial cost the fan-out divides.
    with tr.span("gate.serial_reruns"):
        for name in params:
            for w in DEFAULT_WEIGHTS:
                with tr.span("machine.apply_weights"):
                    accelerated = apply_weights(config, {name: w})
                with tr.span("engine.rerun"):
                    run_schedule(schedule, accelerated)
    with tr.span("gate.sweep_one_worker"):
        serial = sweep_single(events, config, params, DEFAULT_WEIGHTS, workers=1)
        serial.verdicts = classify(serial, DEFAULT_THRESHOLD)
        serial_out = format_sensitivity(serial) + emit_heatmap(serial, "csv")
    checks["sweep_workers_1_equals_workers_n"] = serial_out == sens_out

    with tr.span("caches.lookup"):
        line_lookups, levels = replay_caches(events, config)
    checks["cache_counts_match_run"] = (
        {name: (h, m) for name, h, m in levels}
        == {name: (c.hits, c.misses) for name, c in result.cache_stats.items()})
    with tr.span("branch.predict_update"):
        branches, mispredicted = replay_branches(events, config)
    checks["branch_counts_match_run"] = (
        (branches, mispredicted) == (result.branch_predicted, result.branch_mispredicted))

    n_events = len(events)
    del events, schedule
    # Set-up last, so its garbage cannot hide the parse and build RSS growth.
    with tr.span("corpus.generate"):
        gen_events, gen_config = generate(generator, iters, seed)
    with tr.span("trace.write"):
        trace_text = write_trace(gen_events)
    checks["generated_config_equals_file"] = gen_config == config

    reruns = tr.durations("engine.rerun")
    rerun_tail, rerun_pct = tail(reruns)
    serial_rerun_s = tr.total("machine.apply_weights") + sum(reruns)
    parallel_part = (tr.first("sensitivity.sweep") - tr.first("engine.build_schedule")
                     - tr.first("engine.run_schedule"))
    hit_ratio = {name: h / (h + m) if h + m else 0.0 for name, h, m in levels}
    metrics = {
        "trace.parse_s": (tr.first("trace.parse"), "s"),
        "trace.parse_events_per_s": (n_events / tr.first("trace.parse"), "1/s"),
        "trace.parse_rss_delta_mb": (parse_rss, "MB"),
        "trace.write_s": (tr.first("trace.write"), "s"),
        "machine.load_config_s": (tr.first("machine.load_config"), "s"),
        "machine.apply_weights_s": (tr.total("machine.apply_weights"), "s"),
        "caches.lookup_s": (tr.first("caches.lookup"), "s"),
        "caches.line_lookups": (line_lookups, "count"),
        **{f"caches.{name}.hit_ratio": (hit_ratio.get(name, 0.0), "ratio")
           for name in ("L1", "L2", "L3", "MEM")},
        "branch.predict_update_s": (tr.first("branch.predict_update"), "s"),
        "branch.branches": (branches, "count"),
        "branch.correct_ratio": (1 - mispredicted / branches if branches else 1.0, "ratio"),
        "engine.build_schedule_s": (tr.first("engine.build_schedule"), "s"),
        "engine.build_rss_delta_mb": (build_rss, "MB"),
        "engine.run_schedule_s": (tr.first("engine.run_schedule"), "s"),
        "engine.run_events_per_s": (n_events / tr.first("engine.run_schedule"), "1/s"),
        "engine.rerun_s.p50": (statistics.median(reruns), "s"),
        "engine.rerun_s.tail": (rerun_tail, "s"),
        "engine.rerun_s.tail_pct": (rerun_pct, "%"),
        "engine.rerun_samples": (len(reruns), "count"),
        "sensitivity.sweep_s": (tr.first("sensitivity.sweep"), "s"),
        "sensitivity.points": (len(report.points), "count"),
        "sensitivity.classify_s": (tr.first("sensitivity.classify"), "s"),
        "sensitivity.fanout_speedup": (serial_rerun_s / parallel_part, "ratio"),
        "report.table_s": (tr.first("report.table"), "s"),
        "report.table_rss_delta_mb": (table_rss, "MB"),
        "report.sensitivity_s": (tr.first("report.sensitivity"), "s"),
        "report.bytes": (len(sim_out.encode()) + len(sens_out.encode()), "B"),
        "corpus.generate_s": (tr.first("corpus.generate"), "s"),
    }
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # import + each command's spans: what the two CLI commands cost traced
        "traced_cli_s": 2 * IMPORT_S + tr.first("cli.simulate") + tr.first("cli.sensitivity"),
        "checks": checks,
        "digests": {"simulate": sha256(sim_out), "heatmap": sha256(heatmap),
                    "trace": sha256(trace_text)},
        "cache_counts": {name: {"hits": h, "misses": m} for name, h, m in levels},
        "branch_counts": {"branches": branches, "mispredicted": mispredicted},
        "spans": tr.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--generator", required=True,
                        help="corpus kernel name, or stream-mix")
    parser.add_argument("--iters", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    out = replay(args.trace, args.config, args.workers, args.generator,
                 args.iters, args.seed)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
