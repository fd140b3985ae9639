"""Independent reference models used to check the simulator.

These are deliberately naive: explicit per-set lists, recursive tree walks,
timestamped LRU.  They share no code with the package implementations.
"""

from __future__ import annotations


class TreePlruOracle:
    """One cache set's PLRU tree kept as an explicit dict of node bits."""

    def __init__(self, associativity: int):
        self.assoc = associativity
        self.bits: dict[int, int] = {}

    def victim(self) -> int:
        node = 0
        while node < self.assoc - 1:
            node = 2 * node + 1 + self.bits.get(node, 0)
        return node - (self.assoc - 1)

    def touch(self, way: int) -> None:
        node = way + self.assoc - 1
        while node:
            parent = (node - 1) // 2
            self.bits[parent] = 1 if node == 2 * parent + 1 else 0
            node = parent


class RefCacheLevel:
    """Naive set-associative level: per-set tag lists plus a PLRU oracle."""

    def __init__(self, total_size: int, assoc: int, line: int):
        self.line = line
        self.assoc = assoc
        self.n_sets = total_size // (assoc * line)
        self.tags: list[list[int | None]] = [[None] * assoc for _ in range(self.n_sets)]
        self.trees = [TreePlruOracle(assoc) for _ in range(self.n_sets)]

    def _set(self, line_addr: int) -> int:
        return (line_addr // self.line) % self.n_sets

    def access(self, line_addr: int) -> bool:
        """Hit test with promotion; installs on miss. Returns hit?"""
        si = self._set(line_addr)
        tags, tree = self.tags[si], self.trees[si]
        for way, tag in enumerate(tags):
            if tag == line_addr:
                tree.touch(way)
                return True
        self.install(line_addr)
        return False

    def install(self, line_addr: int) -> None:
        si = self._set(line_addr)
        tags, tree = self.tags[si], self.trees[si]
        for way, tag in enumerate(tags):
            if tag is None:
                tags[way] = line_addr
                tree.touch(way)
                return
        way = tree.victim()
        tags[way] = line_addr
        tree.touch(way)


class RefHierarchy:
    """Reference multi-level lookup with fill-on-miss into upper levels."""

    def __init__(self, geometries: list[tuple[int, int, int]]):
        self.levels = [RefCacheLevel(*g) for g in geometries]

    def access(self, line_addr: int) -> int:
        """Index of the nearest level that hit (len(levels) if none)."""
        hit = len(self.levels)
        for i, level in enumerate(self.levels):
            si = level._set(line_addr)
            tags, tree = level.tags[si], level.trees[si]
            found = None
            for way, tag in enumerate(tags):
                if tag == line_addr:
                    found = way
                    break
            if found is not None:
                tree.touch(found)
                hit = i
                break
        for j in range(min(hit, len(self.levels))):
            self.levels[j].install(line_addr)
        return hit


class LruSet:
    """True least-recently-used set with way-level timestamps."""

    def __init__(self, assoc: int):
        self.slots: list[int | None] = [None] * assoc
        self.stamp = [0] * assoc
        self.clock = 0

    def access(self, tag: int) -> tuple[bool, int]:
        """Returns (hit, way used); misses evict the least recent way."""
        self.clock += 1
        for way, existing in enumerate(self.slots):
            if existing == tag:
                self.stamp[way] = self.clock
                return True, way
        for way, existing in enumerate(self.slots):
            if existing is None:
                self.slots[way] = tag
                self.stamp[way] = self.clock
                return False, way
        way = min(range(len(self.slots)), key=lambda w: self.stamp[w])
        self.slots[way] = tag
        self.stamp[way] = self.clock
        return False, way


class RefTage:
    """Naive BTB plus TAGE-style direction predictor.

    Written from the branch unit's description: a bimodal base table of 2-bit
    counters, and one tagged table of (12-bit tag, 3-bit counter, useful bit)
    per history length, indexed by the pc hashed with that many of the latest
    outcomes.  The history is kept as an int of outcomes, the newest at bit 0,
    and every lookup re-folds its slice from scratch by XORing width-bit
    chunks.  The BTB is a list of sets, most recent entry first.
    """

    TAG_BITS = 12

    def __init__(self, btb_sets: int, btb_ways: int, entries_log2: int,
                 history_lengths: tuple[int, ...]):
        self.btb_sets = btb_sets
        self.btb_ways = btb_ways
        self.entries_log2 = entries_log2
        self.n = 2 ** entries_log2
        self.lengths = list(history_lengths)
        self.base = [0] * self.n
        self.tags = [[-1] * self.n for _ in self.lengths]
        self.ctrs = [[0] * self.n for _ in self.lengths]
        self.useful = [[0] * self.n for _ in self.lengths]
        self.history = 0  # outcome i branches back at bit i
        self.btb: list[list[tuple[int, int]]] = [[] for _ in range(btb_sets)]

    def fold(self, length: int, width: int) -> int:
        """The outcome i branches back lands on bit i mod width, XORed in."""
        out = 0
        history = self.history & ((1 << length) - 1)
        while history:
            out ^= history & ((1 << width) - 1)
            history >>= width
        return out

    def slot(self, pc: int, table: int) -> tuple[int, int]:
        length = self.lengths[table]
        index = (pc ^ (pc // self.n) ^ self.fold(length, self.entries_log2)) % self.n
        tag = (pc ^ self.fold(length, self.TAG_BITS)
               ^ (self.fold(length, self.TAG_BITS - 1) * 2)) % 2 ** self.TAG_BITS
        return index, tag

    def hits(self, pc: int) -> list[tuple[int, int]]:
        """(table, index) of every tagged hit, shortest history first."""
        out = []
        for table in range(len(self.lengths)):
            index, tag = self.slot(pc, table)
            if self.tags[table][index] == tag:
                out.append((table, index))
        return out

    def direction(self, pc: int) -> bool:
        hits = self.hits(pc)
        if hits:
            table, index = hits[-1]
            return self.ctrs[table][index] >= 4
        return self.base[pc % self.n] >= 2

    def target(self, pc: int) -> int | None:
        for tag, target in self.btb[pc % self.btb_sets]:
            if tag == pc:
                return target
        return None

    def predict(self, pc: int) -> tuple[bool, int | None]:
        return self.direction(pc), self.target(pc)

    def update(self, pc: int, taken: bool, target: int) -> None:
        hits = self.hits(pc)
        predicted = self.direction(pc)
        if hits:
            table, index = hits[-1]
            if len(hits) > 1:
                alt = self.ctrs[hits[-2][0]][hits[-2][1]] >= 4
            else:
                alt = self.base[pc % self.n] >= 2
            if alt != predicted:
                self.useful[table][index] = int(predicted == taken)
            ctr = self.ctrs[table][index] + (1 if taken else -1)
            self.ctrs[table][index] = min(7, max(0, ctr))
        b = self.base[pc % self.n] + (1 if taken else -1)
        self.base[pc % self.n] = min(3, max(0, b))

        if predicted != taken:
            longer = range(hits[-1][0] + 1 if hits else 0, len(self.lengths))
            free = [t for t in longer if self.useful[t][self.slot(pc, t)[0]] == 0]
            if free:
                index, tag = self.slot(pc, free[0])
                self.tags[free[0]][index] = tag
                self.ctrs[free[0]][index] = 4 if taken else 3
            else:
                for t in longer:
                    self.useful[t][self.slot(pc, t)[0]] = 0

        self.history = (self.history << 1 | taken) & ((1 << self.lengths[-1]) - 1)

        if target != 0:
            entries = [e for e in self.btb[pc % self.btb_sets] if e[0] != pc]
            self.btb[pc % self.btb_sets] = [(pc, target)] + entries[:self.btb_ways - 1]


class RefTimingModel:
    """Naive timing model written from "The model" in README.md.

    State is plain dicts keyed by resource name, cache-level name, register
    id and byte address; the caches and the branch unit are the references
    above.  There is no schedule and no memoisation: each event is bound,
    looked up, predicted and timed in one pass, in trace order.
    """

    def __init__(self, config):
        self.config = config
        self.gap = {r.name: r.gap for r in config.resources}
        self.avail = {r.name: 0.0 for r in config.resources}
        self.levels = list(config.cache_levels)
        self.level_avail = {level.name: 0.0 for level in self.levels}
        geometric = [level for level in self.levels if level.total_size is not None]
        self.caches = RefHierarchy([(level.total_size, level.associativity, level.line_size)
                                    for level in geometric])
        self.line = geometric[0].line_size if geometric else 64
        b = config.branch
        self.tage = (RefTage(b.btb_sets, b.btb_ways, b.tage_entries_log2, b.history_lengths)
                     if b.enabled else None)
        self.regs: dict[int, float] = {}
        self.mem: dict[int, float] = {}
        self.in_flight: list[float] = []  # end times, oldest first
        self.floor = 0.0

    def end_times(self, events) -> list[float]:
        return [self.step(event) for event in events]

    def charge_bandwidth(self, accesses) -> None:
        """Per line: wait for every level on the path from L2 to the level
        that hit, advance each by its gap, and make the access's bytes in
        that line available no earlier than the wait."""
        if not self.levels:
            return
        for acc in accesses:
            line = acc.addr - acc.addr % self.line
            while line < acc.addr + acc.size:
                hit = min(self.caches.access(line), len(self.levels) - 1)
                path = self.levels[1:hit + 1]
                if path:
                    ready = max(self.level_avail[level.name] for level in path)
                    for level in path:
                        self.level_avail[level.name] += level.gap
                    for byte in range(max(line, acc.addr),
                                      min(line + self.line, acc.addr + acc.size)):
                        self.mem[byte] = max(self.mem.get(byte, 0.0), ready)
                line += self.line

    def step(self, event) -> float:
        config = self.config
        if event.resources is not None and event.latency is not None:
            names, latency = list(event.resources), event.latency
        else:
            kind = config.kinds[event.kind]
            names, latency = list(kind.resources), kind.latency
        if config.frontend_resource is not None:
            names.append(config.frontend_resource)

        if len(self.in_flight) == config.window_capacity:
            self.floor = max(self.floor, self.in_flight.pop(0))
        self.charge_bandwidth(event.mem_reads)
        start = max([self.floor]
                    + [self.regs.get(r, 0.0) for r in event.reg_reads]
                    + [self.mem.get(byte, 0.0) for acc in event.mem_reads
                       for byte in range(acc.addr, acc.addr + acc.size)]
                    + [self.avail[name] for name in names])
        end = start + latency * config.latency_scale
        for name in names:
            self.avail[name] = max(self.avail[name], self.floor) + self.gap[name]
        self.charge_bandwidth(event.mem_writes)
        for r in event.reg_writes:
            self.regs[r] = end
        for acc in event.mem_writes:
            for byte in range(acc.addr, acc.addr + acc.size):
                self.mem[byte] = max(self.mem.get(byte, 0.0), end)

        b = event.branch
        if self.tage is not None and b.kind != "none":
            taken, target = self.tage.predict(event.pc)
            if taken != b.taken or (b.taken and target != b.target):
                self.avail[config.frontend_resource] += config.branch.misprediction_penalty
            self.tage.update(event.pc, b.taken, b.target)
        self.in_flight.append(end)
        return end
