"""Sensitivity analysis: rerun the timing model with resources accelerated
and rank the resulting speedups to find bottlenecks.

A parameter set accelerated by weight w that yields base/accelerated - 1
above the threshold is a bottleneck.  Every rerun shares one precomputed
schedule, so a sweep costs one structural pass plus at most one timing pass
per (parameters, weight) point; points are independent and may run on worker
processes, with results merged by key so output never depends on completion
order.

Most points of a sweep need no rerun at all, because the model is monotone.
Every piece of timing state (resource and cache-level availability, the
window floor, the register and memory shadows) is built from the parameters
by `max`, `+` and multiplication by a non-negative latency, and under IEEE
round-to-nearest each of these is monotone in its operands.  A weight w >= 1
can only lower a gap or the latency scale, or raise the window capacity, and
a parameter left out of a set is at weight 1, which changes nothing.  So the
total time T(S, w) of parameter set S accelerated by w is non-increasing in
all weights jointly: if set(S) is a subset of set(S2) and w <= w2, then
(S2, w2) dominates (S, w) and base >= T(S, w) >= T(S2, w2), exactly.  A
sweep therefore runs in two phases over one worker pool.  Phase 1 reruns the
maximal points, those no other requested point dominates.  Phase 2 reruns
only the points no phase-1 point at exactly the base time dominates; every
other point is squeezed to the base time and is settled without a run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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


_WORKER_STATE: tuple[Schedule, list[MachineConfig]] | None = None


def _run_point(index: int) -> float:
    schedule, configs = _WORKER_STATE
    return run_schedule(schedule, configs[index]).total_cycles


@contextmanager
def _point_runner(schedule: Schedule, configs: list[MachineConfig],
                  workers: int | None):
    """Yield run(indices) -> totals, one pool shared by every call."""
    global _WORKER_STATE
    _WORKER_STATE = (schedule, configs)
    try:
        if workers and workers > 1 and len(configs) > 1 and hasattr(os, "fork"):
            # fork workers inherit the schedule and configs; only indices
            # and totals cross the pipe
            import multiprocessing
            from concurrent import futures

            context = multiprocessing.get_context("fork")
            with futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(configs)),
                    mp_context=context) as pool:
                yield lambda indices: list(pool.map(_run_point, indices))
        else:
            yield lambda indices: [_run_point(i) for i in indices]
    finally:
        _WORKER_STATE = None


def _dominated(key: tuple[frozenset, float],
               by: Iterable[tuple[frozenset, float]]) -> bool:
    names, w = key
    return any(names <= other and w <= w2 for other, w2 in by)


def _sweep(trace: Iterable[InstructionEvent], config: MachineConfig,
           jobs: list[tuple[tuple[str, ...], float]],
           workers: int | None) -> SensitivityReport:
    schedule = build_schedule(trace, config)
    base_time = run_schedule(schedule, config).total_cycles
    # one config per distinct point, built in job order so a bad name or
    # weight raises before anything is settled
    index: dict[tuple[frozenset, float], int] = {}
    configs = []
    slots = []
    for params, w in jobs:
        key = (frozenset(params), w)
        if key not in index:
            index[key] = len(configs)
            configs.append(apply_weights(config, dict.fromkeys(params, w)))
        slots.append(index[key])
    keys = list(index)
    maximal = [i for i, key in enumerate(keys)
               if not _dominated(key, (k for k in keys if k is not key))]
    with _point_runner(schedule, configs, workers) as run:
        times = dict(zip(maximal, run(maximal)))
        at_base = [keys[i] for i in maximal if times[i] == base_time]
        rest = [i for i, key in enumerate(keys)
                if i not in times and not _dominated(key, at_base)]
        if rest:
            times.update(zip(rest, run(rest)))
    points = []
    for (params, w), slot in zip(jobs, slots):
        t = times.get(slot, base_time)
        points.append(SensitivityPoint(parameters=params, weight=w, time=t,
                                       speedup=speedup(base_time, t)))
    return SensitivityReport(base_time=base_time, points=points)


def sweep_single(trace: Iterable[InstructionEvent], config: MachineConfig,
                 parameters: Sequence[str], weights: Sequence[float],
                 workers: int | None = None) -> SensitivityReport:
    """One point per (parameter, weight), against one shared base run."""
    jobs = [((name,), float(w)) for name in parameters for w in weights]
    return _sweep(trace, config, jobs, workers)


def sweep_subsets(trace: Iterable[InstructionEvent], config: MachineConfig,
                  subsets: Sequence[Sequence[str]], weight: float,
                  workers: int | None = None) -> SensitivityReport:
    """One point per subset, all members accelerated together by `weight`."""
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
