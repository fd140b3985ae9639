"""Multi-level set-associative cache hierarchy with tree-PLRU replacement.

Lookups walk the levels nearest-first; a miss at every configured level hits
the memory backstop (a geometry-less last level, or an implicit free one).
The engine charges bandwidth on the path from L2 down to the hit level:
transfers between the core and L1 are not modeled, so L1 hits are free.
"""

from __future__ import annotations

from .machine import CacheLevelConfig


def line_accesses(addr: int, size: int, line_size: int) -> list[int]:
    """Base addresses of every cache line the byte range [addr, addr+size) touches."""
    first = addr - addr % line_size
    return list(range(first, addr + size, line_size))


def plru_victim(bits: int, associativity: int) -> int:
    """Way picked by following the PLRU tree bits from the root to a leaf."""
    node = 0
    while node < associativity - 1:
        node = 2 * node + 1 + ((bits >> node) & 1)
    return node - (associativity - 1)


def plru_touch(bits: int, associativity: int, way: int) -> int:
    """Flip the bits on `way`'s path so the tree points away from it."""
    node = way + associativity - 1
    while node:
        parent = (node - 1) >> 1
        if node == 2 * parent + 1:
            bits |= 1 << parent
        else:
            bits &= ~(1 << parent)
        node = parent
    return bits


class CacheLevelState:
    """Tag arrays, PLRU bits and hit/miss counters for one level; the memory
    backstop has no sets (`n_sets == 0`) and always hits.  `touch[w]` is the
    (keep, set) mask pair that points every set's PLRU tree away from way w."""

    def __init__(self, config: CacheLevelConfig):
        self.name = config.name
        self.hits = 0
        self.misses = 0
        self.n_sets = 0
        if not config.is_backstop:
            self.ways = config.associativity
            self.line_size = config.line_size
            self.n_sets = config.total_size // (self.ways * self.line_size)
            self.sets: list[list[int | None]] = [[None] * self.ways for _ in range(self.n_sets)]
            self.plru = [0] * self.n_sets
            full = (1 << (self.ways - 1)) - 1
            self.touch = [(plru_touch(full, self.ways, w), plru_touch(0, self.ways, w))
                          for w in range(self.ways)]

    def access(self, line: int) -> bool:
        """A hit promotes the line's way; a miss installs the line in the
        first free way, else the PLRU victim.  Ways fill in order and are never
        emptied, so the free ways are the set's tail and a set is full when its
        last way is.  The set is searched by the list's C scans (`in`, `index`),
        and the way's touch masks update the PLRU bits in one step."""
        if not self.n_sets:
            return True
        si = (line // self.line_size) % self.n_sets
        ways = self.sets[si]
        hit = line in ways
        if hit:
            w = ways.index(line)
        else:
            w = ways.index(None) if ways[-1] is None else plru_victim(self.plru[si], self.ways)
            ways[w] = line
        keep, put = self.touch[w]
        self.plru[si] = self.plru[si] & keep | put
        return hit


class CacheHierarchy:
    """Per-run state of the whole hierarchy, built fresh from a config."""

    def __init__(self, levels: tuple[CacheLevelConfig, ...]):
        self.levels = [CacheLevelState(c) for c in levels]

    def lookup_and_fill(self, line: int) -> int:
        """Index of the nearest level holding the line; fills all levels above.

        Returns len(levels) when the line misses every configured level (the
        implicit always-hit memory behind the last one).  Levels hold
        independent state, so filling each missing level as the walk passes
        it equals filling them all after the walk.
        """
        for i, level in enumerate(self.levels):
            if level.access(line):
                level.hits += 1
                return i
            level.misses += 1
        return len(self.levels)
