import random

import pytest

from oracles import LruSet, RefHierarchy, TreePlruOracle
from randcases import random_config, random_trace
from sensim.caches import CacheHierarchy, CacheLevelState, line_accesses, plru_touch, plru_victim
from sensim.engine import simulate
from sensim.machine import CacheLevelConfig, MachineConfig, Resource
from sensim.trace import InstructionEvent, MemAccess


def _level(size, assoc, line, gap=1.0, name="L1"):
    return CacheLevelConfig(name, gap=gap, total_size=size, associativity=assoc,
                            line_size=line)


def _hierarchy(*specs):
    return CacheHierarchy(tuple(
        _level(size, assoc, 64, gap=gap, name=name)
        if size else CacheLevelConfig(name, gap=gap)
        for name, size, assoc, gap in specs))


def test_line_accesses_single_line():
    assert line_accesses(0, 8, 64) == [0]


def test_line_accesses_straddles_boundary():
    assert line_accesses(60, 16, 64) == [0, 64]


def test_line_accesses_spans_lines():
    assert line_accesses(64, 128, 64) == [64, 128]


def test_plru_two_way_victim_is_not_most_recent():
    bits = plru_touch(0, 2, 0)
    assert plru_victim(bits, 2) == 1
    bits = plru_touch(bits, 2, 1)
    assert plru_victim(bits, 2) == 0


# Frozen from the explicit tree walk (TreePlruOracle agrees): filling ways
# 0,1,2,3 leaves the tree pointing at way 0; re-touching way 0 then sends
# the root to the right half, whose older way is 2.
@pytest.mark.parametrize("touches,expected", [
    ((0, 1, 2, 3), 0),
    ((0, 1, 2, 3, 0), 2),
])
def test_plru_four_way_matches_tree_oracle(touches, expected):
    bits = 0
    oracle = TreePlruOracle(4)
    for way in touches:
        bits = plru_touch(bits, 4, way)
        oracle.touch(way)
    assert oracle.victim() == expected
    assert plru_victim(bits, 4) == expected


def test_plru_matches_oracle_on_random_touches():
    rng = random.Random(11)
    for assoc in (2, 4, 8, 16):
        bits = 0
        oracle = TreePlruOracle(assoc)
        for _ in range(500):
            way = rng.randrange(assoc)
            bits = plru_touch(bits, assoc, way)
            oracle.touch(way)
            assert plru_victim(bits, assoc) == oracle.victim()


def test_two_way_plru_is_exactly_lru():
    rng = random.Random(5)
    level = CacheLevelState(_level(2 * 64 * 8, 2, 64))
    refs = [LruSet(2) for _ in range(level.n_sets)]
    for _ in range(10_000):
        line = 64 * rng.randrange(64)
        si = (line // 64) % level.n_sets
        before = list(level.sets[si])
        hit = level.access(line)
        ref_hit, ref_way = refs[si].access(line)
        assert hit == ref_hit
        if not hit:
            changed = [w for w in range(2) if level.sets[si][w] != before[w]]
            assert changed == [ref_way]


def test_cold_miss_fills_l1():
    h = _hierarchy(("L1", 2 * 64 * 4, 2, 1.0), ("MEM", None, None, 4.0))
    assert h.lookup_and_fill(0) == 1  # memory backstop
    assert h.lookup_and_fill(0) == 0  # now an L1 hit
    assert h.levels[0].hits == 1 and h.levels[0].misses == 1
    assert h.levels[1].hits == 1


def test_two_way_conflict_eviction():
    # lines a,b,c map to one set; after touching a,b,c the LRU victim was a
    h = _hierarchy(("L1", 2 * 64 * 4, 2, 1.0))
    n_sets = h.levels[0].n_sets
    stride = 64 * n_sets
    a, b, c = 0, stride, 2 * stride
    for line in (a, b, c):
        h.lookup_and_fill(line)
    assert h.lookup_and_fill(a) == 1  # miss: a was evicted


def test_fill_path_installs_in_all_upper_levels():
    h = _hierarchy(("L1", 2 * 64 * 4, 2, 1.0), ("L2", 4 * 64 * 8, 4, 1.0),
                   ("MEM", None, None, 4.0))
    assert h.lookup_and_fill(128) == 2
    # present in both cache levels now
    assert h.levels[0].access(128)
    assert h.levels[1].access(128)


def _bandwidth_run(l2_gap, l3_gap, mem_gap, addrs):
    """Simulate one 8-byte load per address through a one-line L1.

    The loads have no other dependency, so each starts when its cache path
    (L2 down to the hit level) is available and ends one cycle later.
    """
    levels = (_level(64, 1, 64, name="L1"), _level(512, 2, 64, gap=l2_gap, name="L2"),
              _level(4096, 4, 64, gap=l3_gap, name="L3"),
              CacheLevelConfig("MEM", gap=mem_gap))
    config = MachineConfig(resources=(Resource("p0", 1.0),), window_capacity=64,
                           cache_levels=levels)
    events = [InstructionEvent(seq=k, pc=4 * k, resources=(), latency=1.0,
                               mem_reads=(MemAccess(addr, 8),))
              for k, addr in enumerate(addrs)]
    return simulate(events, config, record_event_times=True)


def _cache_busy(result):
    """Busy time per cache level, transfers x the gap the run used."""
    return {name: c.transfers * result.gaps[name] for name, c in result.cache_stats.items()}


def test_l1_hits_charge_no_bandwidth():
    result = _bandwidth_run(2.0, 2.0, 4.0, (0, 8, 0))
    assert list(result.event_end_times) == [1.0, 1.0, 1.0]
    assert result.cache_stats["L1"].hits == 2
    assert [c.transfers for c in result.cache_stats.values()] == [0, 1, 1, 1]
    assert _cache_busy(result) == {"L1": 0.0, "L2": 2.0, "L3": 2.0, "MEM": 4.0}


def test_l2_hit_charges_only_l2():
    # line 64 evicts line 0 from the one-line L1, so the third load hits L2:
    # it waits for L2 alone (2), not for memory (10), and advances only L2,
    # so the last miss waits for memory at 10
    result = _bandwidth_run(1.0, 1.0, 5.0, (0, 64, 0, 128))
    assert list(result.event_end_times) == [1.0, 6.0, 3.0, 11.0]
    assert result.cache_stats["L2"].hits == 1
    assert [c.transfers for c in result.cache_stats.values()] == [0, 4, 3, 3]


def test_memory_path_waits_for_its_busiest_level():
    # after one miss L2 and MEM are free at 1 but L3 only at 8: the next
    # miss waits for the max over its path, then each level advances by its gap
    result = _bandwidth_run(1.0, 8.0, 1.0, (0, 64))
    assert list(result.event_end_times) == [1.0, 9.0]
    assert _cache_busy(result) == {"L1": 0.0, "L2": 2.0, "L3": 16.0, "MEM": 2.0}


def test_transfers_are_misses_of_the_level_above():
    rng = random.Random(3)
    for _ in range(20):
        config = random_config(rng)
        if not config.cache_levels:
            continue
        result = simulate(random_trace(rng, config), config)
        stats = list(result.cache_stats.values())
        assert stats[0].transfers == 0  # L1 bandwidth is never consumed
        for above, level in zip(stats, stats[1:]):
            assert level.transfers == above.misses
        for level in config.cache_levels:
            assert _cache_busy(result)[level.name] == \
                result.cache_stats[level.name].transfers * level.gap


@pytest.mark.parametrize("seed", range(10))
def test_hierarchy_matches_reference_on_random_traces(seed):
    rng = random.Random(seed)
    line = rng.choice((16, 32, 64))
    geoms = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        assoc = rng.choice((1, 2, 4, 8, 16, 32, 1024))
        sets = 1 if assoc == 1024 else rng.choice((2, 4, 8, 16))  # 1,024 ways: the limit
        size = sets * assoc * line
        while size <= total:
            sets *= 2
            size = sets * assoc * line
        total = size
        geoms.append((size, assoc, line))
    h = CacheHierarchy(tuple(
        _level(size, assoc, line, name=f"C{i}") for i, (size, assoc, line) in enumerate(geoms)))
    ref = RefHierarchy(geoms)
    for _ in range(3000):  # enough to fill a one-set 1,024-way level and evict from it
        addr = line * rng.randrange(4 * total // line)
        assert h.lookup_and_fill(addr) == ref.access(addr)
