"""Sensitivity analysis: rerun the timing model with resources accelerated
and rank the resulting speedups to find bottlenecks.

A parameter set accelerated by weight w that yields base/accelerated - 1
above the threshold is a bottleneck.  Every rerun shares one precomputed
schedule, so a sweep costs one structural pass plus at most one timing pass
per (parameters, weight) point.  Points are independent: N processes, the
parent included, run strided shares of them, and forked children write their
totals into one shared map by point; the parent runs any share no child
finished, so output never depends on the process count or completion order.

Most points of a sweep need no rerun.  The model is monotone: every piece
of timing state (resource and cache-level availability, the window floor,
the register and memory shadows) is built from the parameters by `max`, `+`
and multiplication by a non-negative latency, each monotone in its operands
under IEEE round-to-nearest, and a weight w >= 1 can only lower a gap or the
latency scale, or raise the window capacity.  So no point ends later than
the base run.

Nor does a point end earlier if its parameters all lie in the base run's
`avoided` set.  Every time is at least the sum, rounded in order, along any
dependency path into it.  `avoided` names what one path attaining the base
total never uses (see `engine`): no gap of those resources or cache levels,
and no window floor if it holds `INST_WINDOW`, since a larger window drops
floor edges.  Weights on those parameters keep every edge and operand of
that path, so the total stays at least the base total and equals it, bit
for bit.  This needs one path; a union over tied paths fails, since each
tie may be reached by a different path.  A point whose config equals the
base config (weight 1, or a window weight that rounds back to its capacity)
is settled too.  Every other point is rerun.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from itertools import combinations
from math import inf
from typing import Iterable, NamedTuple, Sequence

from .engine import Schedule, build_schedule, run_schedule
from .machine import MachineConfig, apply_weights
from .trace import InstructionEvent

DEFAULT_WEIGHTS = (1.01, 1.05, 1.10, 1.15)
DEFAULT_THRESHOLD = 0.01
SUBSET_CAP = 1000


class SensitivityPoint(NamedTuple):
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


class BottleneckVerdict(NamedTuple):
    parameters: tuple[str, ...]
    speedup: float
    is_bottleneck: bool


def speedup(base: float, accelerated: float) -> float:
    """base/accelerated - 1; positive when acceleration helped, 0.0 at the base time."""
    if accelerated == base:  # also a zero-cycle run's, whose points all gain nothing
        return 0.0
    if base <= 0 or accelerated <= 0:
        raise ValueError("speedup needs positive times")
    return base / accelerated - 1


def _run_points(schedule: Schedule, configs: list[MachineConfig], workers: int) -> list[float]:
    """The totals of `configs`, in order.  Forked children write theirs into
    one shared map of doubles by index, and the parent reads it only once it
    has reaped every child.  A share runs in the parent if it is the parent's
    own, if `os.fork` failed for it, or if its child did not exit 0."""
    totals = memoryview(mmap.mmap(-1, 8 * (len(configs) or 1))).cast("d")

    def run(share: range) -> None:
        for i in share:
            totals[i] = run_schedule(schedule, configs[i]).total_cycles

    n = min(workers, len(configs) or 1) if hasattr(os, "fork") else 1
    shares = [range(k, len(configs), n) for k in range(n)]
    children, in_parent = [], []
    try:
        for share in shares[1:]:
            try:
                pid = os.fork()
            except OSError:
                in_parent.append(share)
                continue
            if pid == 0:  # the child exits 0 once its totals are written, else 1
                try:
                    run(share)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, share))
        run(shares[0])
    finally:
        in_parent += [share for pid, share in children if os.waitpid(pid, 0)[1]]
    for share in in_parent:
        run(share)
    return totals.tolist()[:len(configs)]


def _sweep(trace: Iterable[InstructionEvent], config: MachineConfig,
           jobs: list[tuple[tuple[str, ...], float]], workers: int) -> SensitivityReport:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # one config per point, built in job order so a bad name or weight, or a
    # repeated parameter or point, raises before the trace is read
    configs = {}
    for params, w in jobs:
        key = (frozenset(params), w)
        if len(key[0]) < len(params) or key in configs:
            raise ValueError(f"{'+'.join(params)} at weight {w} " + (
                "is swept twice" if key in configs else "names a parameter twice"))
        configs[key] = apply_weights(config, dict.fromkeys(params, w))
    schedule = build_schedule(trace, config)
    base = run_schedule(schedule, config)
    # every other point is at the base time at any weight
    live = [key for key, accelerated in configs.items()
            if not key[0] <= base.avoided and accelerated != config]
    times = dict(zip(live, _run_points(schedule, [configs[key] for key in live], workers)))
    points = []
    for params, w in jobs:
        t = times.get((frozenset(params), w), base.total_cycles)
        points.append(SensitivityPoint(parameters=params, weight=w, time=t,
                                       speedup=speedup(base.total_cycles, t)))
    return SensitivityReport(base_time=base.total_cycles, points=points)


def sweep_single(trace: Iterable[InstructionEvent], config: MachineConfig,
                 parameters: Sequence[str], weights: Sequence[float],
                 workers: int = 1) -> SensitivityReport:
    """One point per (parameter, weight), against one shared base run."""
    jobs = [((name,), float(w)) for name in parameters for w in weights]
    return _sweep(trace, config, jobs, workers)


def sweep_subsets(trace: Iterable[InstructionEvent], config: MachineConfig,
                  subsets: Sequence[Sequence[str]], weight: float,
                  workers: int = 1) -> SensitivityReport:
    """One point per subset, all members accelerated together by `weight`."""
    jobs = [(tuple(subset), float(weight)) for subset in subsets]
    return _sweep(trace, config, jobs, workers)


def classify(report: SensitivityReport,
             threshold: float = DEFAULT_THRESHOLD) -> list[BottleneckVerdict]:
    """One verdict per parameter set, sorted by descending best speedup."""
    if not 0 <= threshold < inf:
        raise ValueError("threshold must be a finite number >= 0")
    best: dict[tuple[str, ...], float] = {}
    for point in report.points:
        best[point.parameters] = max(point.speedup, best.get(point.parameters, -inf))
    return sorted((BottleneckVerdict(parameters=params, speedup=s, is_bottleneck=s > threshold)
                   for params, s in best.items()), key=lambda v: (-v.speedup, v.parameters))


def power_subsets(parameters: Sequence[str], max_size: int) -> list[tuple[str, ...]]:
    """All non-empty parameter subsets up to `max_size`, capped in count."""
    out: list[tuple[str, ...]] = []
    for size in range(1, min(max_size, len(parameters)) + 1):
        for combo in combinations(parameters, size):
            out.append(combo)
            if len(out) > SUBSET_CAP:
                raise ValueError(
                    f"subset sweep would need more than {SUBSET_CAP} parameter sets; "
                    "give explicit subsets instead")
    return out
