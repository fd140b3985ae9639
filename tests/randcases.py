"""Seeded random machine/trace cases for property-style tests."""

from __future__ import annotations

import random
from dataclasses import replace

from sensim.machine import CacheLevelConfig, MachineConfig, Resource
from sensim.trace import BranchInfo, InstructionEvent, MemAccess


def random_config(rng: random.Random, max_resources: int = 6) -> MachineConfig:
    n_res = rng.randint(1, max_resources)
    resources = [Resource(f"r{i}", rng.choice((0.25, 0.5, 1.0, 2.0)))
                 for i in range(n_res)]
    frontend = None
    if rng.random() < 0.5:
        frontend = resources[0].name
    levels = ()
    if rng.random() < 0.5:
        line = rng.choice((16, 32, 64))
        levels = (
            CacheLevelConfig("L1", gap=1.0, total_size=line * 2 * 4,
                             associativity=2, line_size=line),
            CacheLevelConfig("L2", gap=rng.choice((0.5, 1.0, 2.0)),
                             total_size=line * 4 * 8, associativity=4, line_size=line),
            CacheLevelConfig("MEM", gap=rng.choice((2.0, 4.0))),
        )
    return MachineConfig(
        resources=tuple(resources),
        window_capacity=rng.randint(1, 16),
        frontend_resource=frontend,
        cache_levels=levels)


def random_trace(rng: random.Random, config: MachineConfig,
                 max_events: int = 200) -> list[InstructionEvent]:
    names = [r.name for r in config.resources]
    events = []
    for seq in range(rng.randint(1, max_events)):
        uses = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        reads = tuple(rng.sample(range(8), rng.randint(0, 2)))
        writes = tuple(rng.sample(range(8), rng.randint(0, 2)))
        mem_reads = ()
        mem_writes = ()
        if config.cache_levels and rng.random() < 0.6:
            addr = rng.randrange(0, 4096, 4)
            mem_reads = (MemAccess(addr, rng.choice((1, 4, 8))),)
        if config.cache_levels and rng.random() < 0.3:
            addr = rng.randrange(0, 4096, 4)
            mem_writes = (MemAccess(addr, rng.choice((1, 4, 8))),)
        events.append(InstructionEvent(
            seq=seq, pc=0x1000 + 4 * rng.randint(0, 31),
            resources=uses, latency=float(rng.randint(0, 5)),
            reg_reads=reads, reg_writes=writes,
            mem_reads=mem_reads, mem_writes=mem_writes,
            branch=BranchInfo()))
    return events


# hierarchies random_config does not draw: random_trace gives a machine
# without caches no memory traffic, and its hierarchies end in a
# geometry-less MEM
MEMORY_SHAPES = ("no caches", "L1 only", "sized last level")


def memory_case(rng: random.Random, shape: str,
                max_events: int = 120) -> tuple[list[InstructionEvent], MachineConfig]:
    """A random machine with the hierarchy `shape`, and a random trace whose
    events mostly load or store: half the accesses share 64 bytes, so loads
    wait on stores, and half spread over a footprint that misses every level."""
    line = rng.choice((16, 32, 64))
    levels = (CacheLevelConfig("L1", gap=1.0, total_size=line * 2 * 4,
                               associativity=2, line_size=line),
              CacheLevelConfig("L2", gap=rng.choice((0.5, 1.0, 2.0)),
                               total_size=line * 4 * 8, associativity=4, line_size=line))
    config = replace(random_config(rng),
                     cache_levels={"no caches": (), "L1 only": levels[:1],
                                   "sized last level": levels}[shape])
    trace = []
    for event in random_trace(rng, config, max_events):
        accesses = [(MemAccess(rng.randrange(0, rng.choice((64, 4096)), 4),
                               rng.choice((1, 4, 8))),)
                    if rng.random() < p else () for p in (0.7, 0.4)]
        trace.append(event._replace(mem_reads=accesses[0], mem_writes=accesses[1]))
    return trace, config


def block_case(rng: random.Random, shape: str,
               max_events: int = 60) -> tuple[list[InstructionEvent], MachineConfig]:
    """A `memory_case` machine, and its trace with every record loading and
    storing 1-3 ranges of 1-24 bytes at any address: most ranges fall in 160
    bytes, so they straddle lines and overlap within and across records, some
    start inside the range before them, some repeat it, and the rest spread
    over a footprint that misses every level."""
    trace, config = memory_case(rng, shape, max_events)

    def ranges() -> tuple[MemAccess, ...]:
        picked = []
        for _ in range(rng.randint(1, 3)):
            mode = rng.random() if picked else 1.0
            if mode < 0.2:
                picked.append(picked[-1])
            elif mode < 0.5:
                prev = picked[-1]
                picked.append(MemAccess(prev.addr + rng.randrange(prev.size), rng.randint(1, 24)))
            else:
                picked.append(MemAccess(rng.randrange(rng.choice((160, 160, 4096))),
                                        rng.randint(1, 24)))
        return tuple(picked)

    return [event._replace(mem_reads=ranges(), mem_writes=ranges()) for event in trace], config
