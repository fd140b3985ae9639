"""Core simulation: the per-instruction timing recurrence over resolved events.

For each event, in order: the start time is the max of the window floor,
the shadow of every read location, the bandwidth wait of every loaded cache
line and the availability of every used resource; the end time adds the
(scaled) latency; each used resource's availability advances by its gap;
written locations get the end time (registers are renamed, so their shadow
is set; memory shadow is max-merged); the end time enters the instruction
window.  The total is the max end time over the trace.  Each line access
also folds its wait into its bytes' shadow; no wait depends on a start
time, so loads and stores are charged in one pass after the shadows are read.
Memory shadow has one key per block: the addresses between two cut points,
where the cuts are every access's start and end and every line boundary
inside an access.  Every read, write and fold covers whole blocks, so all
bytes of a block always hold one value, and a block's key stands for them.
Every window and shadow entry is one (time, mask) pair, the mask a bit set
over `accelerable_parameters(config)`: the parameters one dependency path to
that time avoids.  A max keeps the pair of the term first to reach it; a
resource's gap clears that resource, a cache level's gap its `*_THR` and the
window floor `INST_WINDOW`.  `INST_LAT`'s bit is never set, since every path
ends with a latency.  Availability, rewritten at every use, keeps its masks
in a parallel list.

Two phases keep reruns cheap.  `build_schedule` resolves the trace once and
computes everything timing-independent into a Schedule: the steps, holding
each event's cache hit level and branch verdict, and the per-pc, resource,
cache and branch counts as `counts`, a SimResult no run has timed.
`run_schedule` fills in only its timing fields, all that a weight changes:
the total, the IPC, the gaps it ran with, the parameters the total's path
avoids, and optionally each event's end time.  Every result of one schedule
shares its counts, from which `report` derives busy time, occupancy and
shares.  This is exact, not an approximation: cache replacement and branch
prediction depend only on the event stream, never on simulated time.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Iterable, NamedTuple

from .branch import PredictorState, misprediction_delay
from .caches import CacheHierarchy, line_accesses
from .machine import MachineConfig, accelerable_parameters
from .trace import InstructionEvent, MemAccess, TraceError


class PcStats(NamedTuple):
    """Per-static-pc accounting over a trace; label, latency and resources
    are those of the pc's first event."""

    pc: int
    label: str
    count: int
    latency: float
    resources: tuple[str, ...]
    resource_uses: dict[str, int]


class LevelCounters(NamedTuple):
    hits: int
    misses: int
    transfers: int


class SimResult(NamedTuple):
    """Counts, then timing and the gap of every resource and cache level, for one run.

    A schedule's `counts` is one no run has timed, its timing fields None; a run
    fills in only those, so its counts are the schedule's own read-only objects,
    and pcs with equal counts share one `resource_uses` dict.
    """

    instruction_count: int
    resource_uses: dict[str, int]  # the column sums of the per-pc uses
    per_pc: dict[int, PcStats]
    cache_stats: dict[str, LevelCounters]
    branch_predicted: int
    branch_mispredicted: int
    total_cycles: float | None = None
    ipc: float | None = None
    gaps: dict[str, float] | None = None
    event_end_times: tuple[float, ...] | None = None
    avoided: frozenset[str] | None = None  # the parameters one path to the total avoids


# Step layout (plain tuples keep the timing loop lean):
#   (resources, latency, reg_reads, reg_writes, read_keys, write_keys,
#    mem_ops, penalty)
# where the key fields list the start address of each shadow block the
# accesses cover, and mem_ops holds one (path_end, fold_keys, is_load) per
# line access that crosses a level, loads first.
class Schedule(NamedTuple):
    """Timing-independent digest of a trace resolved against a config: the
    steps the timing recurrence walks, and every count no weight changes as
    an untimed SimResult.  Read-only: equal memory-free steps are one tuple."""

    steps: list[tuple]
    counts: SimResult


def bind_semantics(event: InstructionEvent, config: MachineConfig
                   ) -> tuple[tuple[int, ...], float, str, tuple[str, ...]]:
    """Resource ids, latency, label and resource names for one event.

    Inline resources+latency take precedence over the kind table.  An id is
    an index in `config.resources`; the frontend resource, when configured,
    is appended last to the ids, not to the names.  The result depends only
    on (kind, resources, latency), so callers may memoize on that triple.
    """
    source = event if event.resources is not None else config.kinds.get(event.kind)
    if source is None:
        raise TraceError(f"unknown instruction kind: {event.kind!r}")
    ids = {r.name: i for i, r in enumerate(config.resources)}
    try:
        bound = [ids[name] for name in source.resources]
    except KeyError as exc:
        raise TraceError(f"unknown resource: {exc.args[0]!r}") from None
    if config.frontend_resource is not None:
        bound.append(ids[config.frontend_resource])
    return tuple(bound), source.latency, event.kind or "", source.resources


def build_schedule(events: Iterable[InstructionEvent], config: MachineConfig) -> Schedule:
    """Resolve a trace and precompute everything timing does not change."""
    hierarchy = CacheHierarchy(config.cache_levels)  # no levels: every lookup is free
    predictor = PredictorState(config.branch) if config.branch.enabled else None
    line_size = config.line_size
    last_path = len(config.cache_levels) - 1
    resource_names = tuple(r.name for r in config.resources)
    columns = resource_names + tuple(l.name for l in config.cache_levels)
    n_res = len(resource_names)
    key_memo: dict[MemAccess, tuple] = {}
    cuts: set[int] = set()
    # (start, end) pairs until the loop ends, then the cuts between them; the
    # resolution is not idempotent, so each list is registered exactly once
    key_lists: list[list[int]] = []

    def access_plan(accesses, pc_row, is_load):
        """Shadow keys of the accesses plus a (path_end, fold keys, is_load)
        bandwidth op per line that crosses a level."""
        ops = []
        for acc in accesses:
            memo = key_memo.get(acc)  # an access equals its (addr, size)
            if memo is None:
                addr, size = acc
                keys = [addr, addr + size]
                lines = line_accesses(addr, size, line_size)
                if len(lines) == 1:  # the line's fold covers the whole access
                    per_line = ((lines[0], keys),)
                else:
                    per_line = tuple((line, [max(line, addr), min(line + line_size, addr + size)])
                                     for line in lines)
                    key_lists.extend(k for _, k in per_line)
                key_lists.append(keys)
                cuts.update(lines[1:], (addr, addr + size))
                memo = key_memo[acc] = (keys, per_line)
            for line, fold_keys in memo[1]:
                end = min(hierarchy.lookup_and_fill(line), last_path)
                if end >= 1:
                    ops.append((end, fold_keys, is_load))
                    for i in range(n_res + 1, n_res + end + 1):
                        pc_row[i] += 1
        if len(accesses) == 1:
            return memo[0], tuple(ops)
        keys = [k for acc in accesses for k in key_memo[acc][0]]
        key_lists.append(keys)
        return keys, tuple(ops)

    semantics_memo: dict[tuple, tuple] = {}
    # pc -> (label, latency, explicit resource names) of its first event, and
    # a row of uses per column (resources, then cache levels) plus its count
    pcs: dict[int, tuple[str, float, tuple[str, ...], list[int]]] = {}
    steps = []
    step_memo: dict[tuple, tuple] = {}  # one object per distinct memory-free step
    predicted = mispredicted = 0
    for event in events:  # unpacked once: a record's fields cost more read one by one
        (pc, kind, inline_names, inline_latency, reg_reads, reg_writes, mem_reads, mem_writes,
         branch) = event
        sem_key = (kind, inline_names, inline_latency)
        sem = semantics_memo.get(sem_key)
        if sem is None:
            sem = semantics_memo[sem_key] = bind_semantics(event, config)
        resources, latency, label, names = sem

        entry = pcs.get(pc)
        if entry is None:  # the memo merges -0.0 with 0.0: keep the record's own zero
            own = latency if latency or inline_latency is None else inline_latency
            entry = pcs[pc] = (label, own, names, [0] * (len(columns) + 1))
        pc_row = entry[3]
        pc_row[-1] += 1
        for rid in resources:
            pc_row[rid] += 1

        read_keys = loads = write_keys = stores = ()
        if mem_reads:
            read_keys, loads = access_plan(mem_reads, pc_row, True)
        if mem_writes:
            write_keys, stores = access_plan(mem_writes, pc_row, False)

        penalty = 0.0
        if predictor is not None and branch.kind != "none":
            _, taken, target = branch
            prediction = predictor.update(pc, taken, target)
            penalty = misprediction_delay(prediction, taken, target, config.branch)
            predicted += 1
            if penalty:
                mispredicted += 1

        step = (resources, latency, reg_reads, reg_writes,
                read_keys, write_keys, loads + stores, penalty)
        if not (mem_reads or mem_writes):  # key lists are resolved in place: never merged
            step = step_memo.setdefault(step, step)
        steps.append(step)

    order = sorted(cuts)
    at = {cut: i for i, cut in enumerate(order)}
    for keys in key_lists:  # in place: every step sharing a list sees its blocks
        bounds = iter(keys)
        keys[:] = [k for start, end in zip(bounds, bounds) for k in order[at[start]:at[end]]]
    levels = hierarchy.levels
    shared: dict[tuple, dict[str, int]] = {}  # one uses dict per distinct row of counts
    return Schedule(steps, SimResult(
        instruction_count=len(steps),
        resource_uses={name: sum(entry[3][i] for entry in pcs.values())
                       for i, name in enumerate(resource_names)},
        per_pc={pc: PcStats._make((pc, label, row[-1], latency, names,
                                   shared.get(key := tuple(row[:-1])) or shared.setdefault(
                                       key, {c: n for c, n in zip(columns, row) if n})))
                for pc, (label, latency, names, row) in pcs.items()},
        # a line crosses level i (i >= 1) exactly when level i-1 missed it
        cache_stats={level.name: LevelCounters(hits=level.hits, misses=level.misses,
                                               transfers=levels[i - 1].misses if i else 0)
                     for i, level in enumerate(levels)},
        branch_predicted=predicted,
        branch_mispredicted=mispredicted))


def run_schedule(schedule: Schedule, config: MachineConfig,
                 record_event_times: bool = False) -> SimResult:
    """Run the timing recurrence for one (possibly weight-derived) config.

    Only what a weight can change is computed here: the result is the
    schedule's `counts` with its timing fields filled in.
    """
    counts = schedule.counts
    names = [*counts.resource_uses, *counts.cache_stats]
    if names != [r.name for r in config.resources] + [l.name for l in config.cache_levels]:
        raise ValueError("schedule was built against a different machine")
    gaps = [r.gap for r in config.resources]
    cache_gaps = [l.gap for l in config.cache_levels]
    cache_avail = [0.0] * len(counts.cache_stats)
    avail = [0.0] * len(gaps)
    lat_scale = config.latency_scale
    capacity = config.window_capacity
    # mask bits: the resources, INST_LAT, INST_WINDOW, then each *_THR
    params = accelerable_parameters(config)
    n_res = len(gaps)
    every = ((1 << len(params)) - 1) & ~(1 << n_res)
    not_window = every & ~(1 << n_res + 1)
    not_own = [every & ~(1 << rid) for rid in range(n_res)]
    level_masks = [every & ~(1 << n_res + 1 + i) for i in range(len(cache_gaps))]
    # not paired: avail is rewritten at every use, and a pair per use cost a run 11-18 %
    avail_masks = [every] * n_res

    window: deque[tuple[float, int]] = deque()  # (time, mask), as is each shadow
    window_pop = window.popleft
    window_add = window.append
    t_min = total = 0.0
    floor_mask = total_mask = every
    unset = (0.0, every)
    shadow_reg: dict[int, tuple[float, int]] = {}
    shadow_mem: dict[int, tuple[float, int]] = {}
    sr_get = shadow_reg.get
    sm_get = shadow_mem.get
    t_ends: list[float] | None = [] if record_event_times else None

    for (resources, latency, reg_reads, reg_writes, read_keys, write_keys,
         mem_ops, penalty) in schedule.steps:
        if len(window) == capacity:
            evicted, evicted_mask = window_pop()
            if evicted > t_min:
                t_min = evicted
                floor_mask = evicted_mask & not_window
        t = t_min
        mask = floor_mask
        for r in reg_reads:
            v = sr_get(r, unset)
            if v[0] > t:
                t, mask = v
        for k in read_keys:
            v = sm_get(k, unset)
            if v[0] > t:
                t, mask = v
        for end, fold_keys, is_load in mem_ops:
            # a positive wait is a sum of one level's gaps
            a = 0.0
            for i in range(1, end + 1):
                v = cache_avail[i]
                if v > a:
                    a = v
                    level = i
                cache_avail[i] = v + cache_gaps[i]
            if a > 0.0:
                wait = (a, level_masks[level])
                if is_load and a > t:
                    t, mask = wait
                for k in fold_keys:
                    if sm_get(k, unset)[0] < a:
                        shadow_mem[k] = wait
        for rid in resources:
            v = avail[rid]
            if v > t:
                t = v
                mask = avail_masks[rid]
        t_end = t + latency * lat_scale
        done = (t_end, mask)
        for rid in resources:
            a = avail[rid]
            if a <= t_min:  # else a's mask is already clear of rid's bit
                a = t_min
                avail_masks[rid] = floor_mask & not_own[rid]
            avail[rid] = a + gaps[rid]
        for r in reg_writes:
            shadow_reg[r] = done
        for k in write_keys:
            if sm_get(k, unset)[0] < t_end:
                shadow_mem[k] = done
        if penalty:  # only with the branch unit on, which needs the frontend: bound last
            avail[resources[-1]] += penalty
        window_add(done)
        if t_end > total:
            total = t_end
            total_mask = mask
        if t_ends is not None:
            t_ends.append(t_end)

    # finite inputs overflow only to +inf (timing uses only max, + and * by
    # non-negative numbers), and a weight can only lower every time, so a
    # sweep whose base run passes this check never fails it on a rerun
    if total == inf:
        raise ValueError("simulated time overflowed")
    return counts._replace(
        total_cycles=total, ipc=counts.instruction_count / total if total > 0 else 0.0,
        gaps=dict(zip(names, gaps + cache_gaps)),
        event_end_times=tuple(t_ends) if t_ends is not None else None,
        avoided=frozenset(n for i, n in enumerate(params) if total_mask >> i & 1))


def simulate(trace: Iterable[InstructionEvent], config: MachineConfig,
             record_event_times: bool = False) -> SimResult:
    """Estimate the execution of a trace on the configured machine."""
    return run_schedule(build_schedule(trace, config), config,
                        record_event_times=record_event_times)
