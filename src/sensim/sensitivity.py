"""Sensitivity analysis: rerun the timing model with resources accelerated
and rank the resulting speedups to find bottlenecks.

A parameter set accelerated by weight w that yields base/accelerated - 1
above the threshold is a bottleneck.  Every rerun shares one precomputed
schedule, so a sweep costs one structural pass plus one timing pass per
(parameters, weight) point; points are independent and may run on worker
processes, with results merged by key so output never depends on completion
order.
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Sequence

from .engine import Schedule, build_schedule, run_schedule
from .machine import MachineConfig, apply_weights
from .trace import InstructionEvent


@dataclass(frozen=True)
class SensitivityPoint:
    """Outcome of one rerun with `parameters` accelerated by `weight`."""

    parameters: tuple[str, ...]
    weight: float
    time: float
    speedup: float


@dataclass
class SensitivityReport:
    base_time: float
    points: list[SensitivityPoint]
    verdicts: list[BottleneckVerdict] = field(default_factory=list)


@dataclass(frozen=True)
class BottleneckVerdict:
    parameters: tuple[str, ...]
    speedup: float
    is_bottleneck: bool


def speedup(base: float, accelerated: float) -> float:
    """base/accelerated - 1; positive when acceleration helped."""
    if base <= 0 or accelerated <= 0:
        raise ValueError("speedup needs positive times")
    return base / accelerated - 1


_WORKER_STATE: tuple[Schedule, MachineConfig] | None = None


def _run_point(weights: dict[str, float]) -> float:
    schedule, config = _WORKER_STATE
    return run_schedule(schedule, apply_weights(config, weights)).total_cycles


def _run_points(schedule: Schedule, config: MachineConfig,
                jobs: list[dict[str, float]], workers: int | None) -> list[float]:
    global _WORKER_STATE
    _WORKER_STATE = (schedule, config)
    try:
        if workers and workers > 1 and len(jobs) > 1 and hasattr(os, "fork"):
            # fork workers inherit the schedule; only weights cross the pipe
            import multiprocessing

            context = multiprocessing.get_context("fork")
            with futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(jobs)),
                    mp_context=context) as pool:
                return list(pool.map(_run_point, jobs))
        return [_run_point(job) for job in jobs]
    finally:
        _WORKER_STATE = None


def _sweep(trace: Iterable[InstructionEvent], config: MachineConfig,
           jobs: list[tuple[tuple[str, ...], float]],
           workers: int | None) -> SensitivityReport:
    schedule = build_schedule(trace, config)
    base_time = run_schedule(schedule, config).total_cycles
    times = _run_points(schedule, config,
                        [{name: w for name in params} for params, w in jobs],
                        workers)
    points = [
        SensitivityPoint(parameters=params, weight=w, time=t,
                         speedup=speedup(base_time, t))
        for (params, w), t in zip(jobs, times)]
    return SensitivityReport(base_time=base_time, points=points)


def sweep_single(trace: Iterable[InstructionEvent], config: MachineConfig,
                 parameters: Sequence[str], weights: Sequence[float],
                 workers: int | None = None) -> SensitivityReport:
    """One rerun per (parameter, weight), against one shared base run."""
    jobs = [((name,), float(w)) for name in parameters for w in weights]
    return _sweep(trace, config, jobs, workers)


def sweep_subsets(trace: Iterable[InstructionEvent], config: MachineConfig,
                  subsets: Sequence[Sequence[str]], weight: float,
                  workers: int | None = None) -> SensitivityReport:
    """One rerun per subset, all members accelerated together by `weight`."""
    jobs = [(tuple(subset), float(weight)) for subset in subsets]
    return _sweep(trace, config, jobs, workers)


def classify(report: SensitivityReport, threshold: float = 0.01) -> list[BottleneckVerdict]:
    """One verdict per parameter set, sorted by descending best speedup."""
    if not 0 <= threshold < inf:
        raise ValueError("threshold must be a finite number >= 0")
    best: dict[tuple[str, ...], float] = {}
    for point in report.points:
        cur = best.get(point.parameters)
        if cur is None or point.speedup > cur:
            best[point.parameters] = point.speedup
    verdicts = [
        BottleneckVerdict(parameters=params, speedup=s, is_bottleneck=s > threshold)
        for params, s in best.items()]
    verdicts.sort(key=lambda v: (-v.speedup, v.parameters))
    return verdicts


DEFAULT_WEIGHTS = (1.01, 1.05, 1.10, 1.15)
DEFAULT_THRESHOLD = 0.01
SUBSET_RUN_CAP = 1000


def power_subsets(parameters: Sequence[str], max_size: int = 3) -> list[tuple[str, ...]]:
    """All non-empty parameter subsets up to `max_size`, capped in count."""
    from itertools import combinations

    out: list[tuple[str, ...]] = []
    for size in range(1, max_size + 1):
        for combo in combinations(parameters, size):
            out.append(combo)
            if len(out) > SUBSET_RUN_CAP:
                raise ValueError(
                    f"subset sweep would need more than {SUBSET_RUN_CAP} runs; "
                    "give explicit subsets instead")
    return out
