"""Core simulation: the per-instruction timing recurrence over resolved events.

For each event, in order: load-side cache bandwidth is consumed and folded
into the shadow memory of the read locations; the start time is the max of
the window floor, the shadow of every read location and the availability of
every used resource; the end time adds the (scaled) latency; each used
resource's availability advances by its gap; store-side bandwidth is
consumed; written locations get the end time (registers are renamed, so
their shadow is set; memory shadow is max-merged); the end time enters the
instruction window.  The total is the max end time over the trace.

Two phases keep reruns cheap.  `build_schedule` resolves the trace once and
computes everything timing-independent into a Schedule: the cache hit level
and branch verdict of each event, and the finished per-pc, per-resource,
cache and branch counts.  `run_schedule` then computes only what a weight
changes: the total, the IPC, busy time per resource and cache level, and
optionally each event's end time; every result built from one schedule
shares its counts.  This is exact, not an approximation: cache replacement
and branch prediction depend only on the event stream, never on simulated
time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Iterable

from .branch import PredictorState, misprediction_delay
from .caches import CacheHierarchy, line_accesses
from .machine import MachineConfig, UnknownKind
from .trace import InstructionEvent


class ZeroTimeTrace(ValueError):
    """Raised when a per-cycle report is asked of a zero-cycle result."""


class TimeOverflow(ValueError):
    """Raised when a run's total or busy time exceeds the largest float."""


@dataclass(frozen=True)
class PcStats:
    """Per-static-pc accounting over a trace; label, latency and resources
    are those of the pc's first event."""

    pc: int
    label: str
    count: int
    latency: float
    resources: tuple[str, ...]
    resource_uses: dict[str, int]


@dataclass(frozen=True)
class LevelCounters:
    hits: int
    misses: int
    transfers: int


@dataclass(frozen=True)
class SimResult:
    """Counts and timing estimated for one run.

    `resource_uses`, `per_pc` and `cache_stats` are the schedule's own
    objects, shared with every other run of that schedule: do not mutate them.
    """

    total_cycles: float
    instruction_count: int
    ipc: float
    resource_uses: dict[str, int]
    resource_busy: dict[str, float]
    per_pc: dict[int, PcStats]
    cache_stats: dict[str, LevelCounters]
    cache_busy: dict[str, float]
    branch_predicted: int
    branch_mispredicted: int
    event_end_times: tuple[float, ...] | None = None


# Step layout (plain tuples keep the timing loop lean):
#   (resources, latency, reg_reads, reg_writes, read_keys, write_keys,
#    loads, stores, penalty)
# where loads/stores are tuples of (path_end, fold_keys) per line access.
@dataclass(frozen=True)
class Schedule:
    """Timing-independent digest of a trace resolved against a config: the
    steps the timing recurrence walks, plus every count no weight changes."""

    steps: list[tuple]
    resource_uses: dict[str, int]
    per_pc: dict[int, PcStats]
    cache_stats: dict[str, LevelCounters]
    branch_predicted: int
    branch_mispredicted: int


def bind_semantics(event: InstructionEvent,
                   config: MachineConfig) -> tuple[tuple[int, ...], float, str]:
    """Resource ids, latency and label for one event under a config.

    Inline resources+latency take precedence over the kind table; the
    frontend resource, when configured, is appended once to the multiset.
    The result depends only on (kind, resources, latency), so callers may
    memoize on that triple.
    """
    if event.resources is not None and event.latency is not None:
        names = event.resources
        latency = event.latency
        label = event.kind or ""
    else:
        try:
            kind = config.kinds[event.kind]
        except KeyError:
            raise UnknownKind(event.kind) from None
        names = kind.resources
        latency = kind.latency
        label = kind.name
    ids = [config.resource_id(n) for n in names]
    if config.frontend_id is not None:
        ids.append(config.frontend_id)
    return tuple(ids), latency, label


def build_schedule(events: Iterable[InstructionEvent], config: MachineConfig) -> Schedule:
    """Resolve a trace and precompute everything timing does not change."""
    hierarchy = CacheHierarchy(config.cache_levels) if config.cache_levels else None
    predictor = PredictorState(config.branch) if config.branch.enabled else None
    line_size = config.line_size
    last_path = len(config.cache_levels) - 1
    resource_names = tuple(r.name for r in config.resources)
    columns = resource_names + tuple(l.name for l in config.cache_levels)
    n_res = len(resource_names)
    uses = [0] * n_res
    key_memo: dict[tuple[int, int], tuple] = {}

    def access_plan(accesses, pc_row):
        """Per access: shadow keys plus (path_end, keys-in-line) bandwidth ops."""
        all_keys = []
        ops = []
        for acc in accesses:
            addr, size = acc.addr, acc.size
            memo = key_memo.get((addr, size))
            if memo is None:
                # one key per byte; a line's keys are a slice of the access's
                keys = tuple(range(addr, addr + size))
                memo = key_memo[(addr, size)] = (keys, tuple(
                    (line, keys[max(line - addr, 0):line + line_size - addr])
                    for line in line_accesses(addr, size, line_size)))
            keys, per_line = memo
            all_keys.extend(keys)
            if hierarchy is None:
                continue
            for line, line_keys in per_line:
                end = min(hierarchy.lookup_and_fill(line), last_path)
                if end >= 1:
                    ops.append((end, line_keys))
                    for i in range(n_res + 1, n_res + end + 1):
                        pc_row[i] += 1
        return tuple(all_keys), tuple(ops)

    frontend_appended = config.frontend_id is not None
    semantics_memo: dict[tuple, tuple] = {}
    # pc -> (label, latency, explicit resource names) of its first event, and
    # a row of uses per column (resources, then cache levels) plus its count
    pcs: dict[int, tuple[str, float, tuple[str, ...], list[int]]] = {}
    steps = []
    predicted = mispredicted = 0
    for event in events:
        sem_key = (event.kind, event.resources, event.latency)
        sem = semantics_memo.get(sem_key)
        if sem is None:
            sem = semantics_memo[sem_key] = bind_semantics(event, config)
        resources, latency, label = sem

        entry = pcs.get(event.pc)
        if entry is None:
            explicit = resources[:-1] if frontend_appended else resources
            entry = pcs[event.pc] = (label, latency,
                                     tuple(resource_names[i] for i in explicit),
                                     [0] * (len(columns) + 1))
        pc_row = entry[3]
        pc_row[-1] += 1
        for rid in resources:
            uses[rid] += 1
            pc_row[rid] += 1

        read_keys, loads = access_plan(event.mem_reads, pc_row)
        write_keys, stores = access_plan(event.mem_writes, pc_row)

        penalty = 0.0
        if predictor is not None and event.branch.kind != "none":
            prediction = predictor.predict(event.pc, event.branch.kind)
            penalty = misprediction_delay(prediction, event.branch.taken,
                                          event.branch.target, config.branch)
            predictor.update(event.pc, event.branch.taken, event.branch.target)
            predicted += 1
            if penalty:
                mispredicted += 1

        steps.append((resources, latency, event.reg_reads, event.reg_writes,
                      read_keys, write_keys, loads, stores, penalty))

    levels = hierarchy.levels if hierarchy is not None else []
    return Schedule(
        steps=steps,
        resource_uses=dict(zip(resource_names, uses)),
        per_pc={pc: PcStats(pc=pc, label=label, count=row[-1], latency=latency,
                            resources=names,
                            resource_uses={c: n for c, n in zip(columns, row) if n})
                for pc, (label, latency, names, row) in pcs.items()},
        # a line crosses level i (i >= 1) exactly when level i-1 missed it
        cache_stats={level.name: LevelCounters(hits=level.hits, misses=level.misses,
                                               transfers=levels[i - 1].misses if i else 0)
                     for i, level in enumerate(levels)},
        branch_predicted=predicted,
        branch_mispredicted=mispredicted)


def run_schedule(schedule: Schedule, config: MachineConfig,
                 record_event_times: bool = False) -> SimResult:
    """Run the timing recurrence for one (possibly weight-derived) config.

    Only what a weight can change is computed here; the counts come from the
    schedule and are shared by every result built from it.
    """
    if len(schedule.resource_uses) != len(config.resources):
        raise ValueError("schedule was built against a different machine")
    gaps = [r.gap for r in config.resources]
    cache_gaps = [l.gap for l in config.cache_levels]
    cache_avail = [0.0] * len(schedule.cache_stats)
    avail = [0.0] * len(gaps)
    lat_scale = config.latency_scale
    capacity = config.window_capacity
    fe = config.frontend_id if config.frontend_id is not None else -1

    window: deque[float] = deque()
    window_pop = window.popleft
    window_add = window.append
    t_min = 0.0
    total = 0.0
    shadow_reg: dict[int, float] = {}
    shadow_mem: dict[int, float] = {}
    sr_get = shadow_reg.get
    sm_get = shadow_mem.get
    t_ends: list[float] | None = [] if record_event_times else None

    for (resources, latency, reg_reads, reg_writes, read_keys, write_keys,
         loads, stores, penalty) in schedule.steps:
        if len(window) == capacity:
            evicted = window_pop()
            if evicted > t_min:
                t_min = evicted
        t = t_min
        for end, fold_keys in loads:
            a = 0.0
            for i in range(1, end + 1):
                v = cache_avail[i]
                if v > a:
                    a = v
                cache_avail[i] = v + cache_gaps[i]
            if a > 0.0:
                for k in fold_keys:
                    if sm_get(k, 0.0) < a:
                        shadow_mem[k] = a
        for r in reg_reads:
            v = sr_get(r, 0.0)
            if v > t:
                t = v
        for k in read_keys:
            v = sm_get(k, 0.0)
            if v > t:
                t = v
        for rid in resources:
            v = avail[rid]
            if v > t:
                t = v
        t_end = t + latency * lat_scale
        for rid in resources:
            a = avail[rid]
            avail[rid] = (a if a > t_min else t_min) + gaps[rid]
        for end, fold_keys in stores:
            a = 0.0
            for i in range(1, end + 1):
                v = cache_avail[i]
                if v > a:
                    a = v
                cache_avail[i] = v + cache_gaps[i]
            if a > 0.0:
                for k in fold_keys:
                    if sm_get(k, 0.0) < a:
                        shadow_mem[k] = a
        for r in reg_writes:
            shadow_reg[r] = t_end
        for k in write_keys:
            if sm_get(k, 0.0) < t_end:
                shadow_mem[k] = t_end
        if penalty:
            avail[fe] += penalty
        window_add(t_end)
        if t_end > total:
            total = t_end
        if t_ends is not None:
            t_ends.append(t_end)

    resource_busy = {name: n * gap
                     for (name, n), gap in zip(schedule.resource_uses.items(), gaps)}
    cache_busy = {name: c.transfers * gap
                  for (name, c), gap in zip(schedule.cache_stats.items(), cache_gaps)}
    # finite inputs overflow only to +inf (timing uses only max, + and *
    # by non-negative numbers), and a weight can only lower every time, so
    # a sweep whose base run passes this check never fails it on a rerun
    if total == inf or inf in resource_busy.values() or inf in cache_busy.values():
        raise TimeOverflow("simulated time overflowed")
    count = len(schedule.steps)
    return SimResult(
        total_cycles=total,
        instruction_count=count,
        ipc=count / total if total > 0 else 0.0,
        resource_uses=schedule.resource_uses,
        resource_busy=resource_busy,
        per_pc=schedule.per_pc,
        cache_stats=schedule.cache_stats,
        cache_busy=cache_busy,
        branch_predicted=schedule.branch_predicted,
        branch_mispredicted=schedule.branch_mispredicted,
        event_end_times=tuple(t_ends) if t_ends is not None else None)


def simulate(trace: Iterable[InstructionEvent], config: MachineConfig,
             record_event_times: bool = False) -> SimResult:
    """Estimate the execution of a trace on the configured machine."""
    return run_schedule(build_schedule(trace, config), config,
                        record_event_times=record_event_times)


def occupancy_report(result: SimResult) -> dict[str, float]:
    """Fraction of total cycles each resource spent busy (uses x gap / total)."""
    if result.total_cycles <= 0:
        raise ZeroTimeTrace("occupancy is undefined on a zero-cycle run")
    return {name: busy / result.total_cycles
            for name, busy in result.resource_busy.items()}
