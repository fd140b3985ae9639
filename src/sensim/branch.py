"""Branch prediction unit: BTB with LRU sets plus a TAGE-style direction predictor.

Prediction outcomes depend only on the branch event stream (program counters
and actual outcomes), never on simulated time, so predictor state can be
driven once per trace and its verdicts reused across accelerated reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

_TAG_BITS = 12


@dataclass(frozen=True)
class BranchConfig:
    """Parameters of the modeled branch prediction unit.

    Defaults are deliberately small (desk-scale) and the unit is opt-in:
    with enabled=False the simulation is identical to one without any
    branch modeling.
    """

    enabled: bool = False
    btb_sets: int = 64
    btb_ways: int = 4
    tage_tables: int = 4
    tage_entries_log2: int = 10
    history_lengths: tuple[int, ...] = (4, 8, 16, 32)
    misprediction_penalty: float = 15.0

    def validate(self) -> None:
        if self.btb_sets < 1 or self.btb_ways < 1:
            raise ValueError("BTB geometry must be at least 1 set and 1 way")
        if self.tage_entries_log2 < 1:
            raise ValueError("tage_entries_log2 must be >= 1")
        if not self.history_lengths or self.history_lengths[0] < 1:
            raise ValueError("history_lengths must be non-empty and start at >= 1")
        if self.tage_tables != len(self.history_lengths):
            raise ValueError("tage_tables must match len(history_lengths)")
        if any(b <= a for a, b in zip(self.history_lengths, self.history_lengths[1:])):
            raise ValueError("history_lengths must be strictly increasing")
        if not 0 <= self.misprediction_penalty < inf:
            raise ValueError("misprediction_penalty must be finite and >= 0")


@dataclass(frozen=True)
class Prediction:
    taken: bool
    target: int | None


def _fold(value: int, length: int, width: int) -> int:
    """XOR-fold the low `length` bits of `value` into `width` bits."""
    value &= (1 << length) - 1
    out = 0
    while value:
        out ^= value & ((1 << width) - 1)
        value >>= width
    return out


class PredictorState:
    """Mutable predictor state, private to one simulation run.

    The direction predictor keeps a bimodal base table of 2-bit counters and
    `tage_tables` tagged tables of (tag, 3-bit counter, useful bit) indexed by
    pc hashed with geometrically longer slices of the global history.  The
    provider is the longest-history tag hit; the base table answers otherwise.
    """

    def __init__(self, config: BranchConfig):
        config.validate()
        self.config = config
        n = 1 << config.tage_entries_log2
        self._mask = n - 1
        self.base = [0] * n
        self.tags = [[-1] * n for _ in range(config.tage_tables)]
        self.ctrs = [[0] * n for _ in range(config.tage_tables)]
        self.useful = [[0] * n for _ in range(config.tage_tables)]
        self.ghr = 0
        self._ghr_mask = (1 << config.history_lengths[-1]) - 1
        self.btb: list[list[tuple[int, int]]] = [[] for _ in range(config.btb_sets)]

    def _index(self, pc: int, table: int) -> int:
        hist = _fold(self.ghr, self.config.history_lengths[table],
                     self.config.tage_entries_log2)
        return (pc ^ (pc >> self.config.tage_entries_log2) ^ hist) & self._mask

    def _tag(self, pc: int, table: int) -> int:
        hist = _fold(self.ghr, self.config.history_lengths[table], _TAG_BITS)
        h2 = _fold(self.ghr, self.config.history_lengths[table], _TAG_BITS - 1)
        return (pc ^ hist ^ (h2 << 1)) & ((1 << _TAG_BITS) - 1)

    def _provider(self, pc: int) -> tuple[int, int] | None:
        """Longest-history tagged hit as (table, index), or None."""
        for table in range(self.config.tage_tables - 1, -1, -1):
            idx = self._index(pc, table)
            if self.tags[table][idx] == self._tag(pc, table):
                return table, idx
        return None

    def _direction(self, pc: int) -> tuple[bool, tuple[int, int] | None]:
        hit = self._provider(pc)
        if hit is not None:
            table, idx = hit
            return self.ctrs[table][idx] >= 4, hit
        return self.base[pc & self._mask] >= 2, None

    def btb_lookup(self, pc: int) -> int | None:
        ways = self.btb[pc % self.config.btb_sets]
        for tag, target in ways:
            if tag == pc:
                return target
        return None

    def predict(self, pc: int, kind: str) -> Prediction:
        """Predict direction and target for a branch at `pc`; state unchanged."""
        taken, _ = self._direction(pc)
        return Prediction(taken=taken, target=self.btb_lookup(pc))

    def update(self, pc: int, taken: bool, target: int) -> None:
        """Train tables with the actual outcome; must follow predict for this pc."""
        predicted, hit = self._direction(pc)

        if hit is not None:
            table, idx = hit
            # altpred = next longer... next shorter hit, else base table
            alt = None
            for t2 in range(table - 1, -1, -1):
                i2 = self._index(pc, t2)
                if self.tags[t2][i2] == self._tag(pc, t2):
                    alt = self.ctrs[t2][i2] >= 4
                    break
            if alt is None:
                alt = self.base[pc & self._mask] >= 2
            if predicted != alt:
                self.useful[table][idx] = 1 if predicted == taken else 0
            ctr = self.ctrs[table][idx]
            self.ctrs[table][idx] = min(7, ctr + 1) if taken else max(0, ctr - 1)

        b = self.base[pc & self._mask]
        self.base[pc & self._mask] = min(3, b + 1) if taken else max(0, b - 1)

        if predicted != taken:
            start = hit[0] + 1 if hit is not None else 0
            allocated = False
            for table in range(start, self.config.tage_tables):
                idx = self._index(pc, table)
                if self.useful[table][idx] == 0:
                    self.tags[table][idx] = self._tag(pc, table)
                    self.ctrs[table][idx] = 4 if taken else 3
                    allocated = True
                    break
            if not allocated:
                for table in range(start, self.config.tage_tables):
                    self.useful[table][self._index(pc, table)] = 0

        self.ghr = ((self.ghr << 1) | int(taken)) & self._ghr_mask

        if target:
            ways = self.btb[pc % self.config.btb_sets]
            for i, (tag, _) in enumerate(ways):
                if tag == pc:
                    del ways[i]
                    break
            ways.insert(0, (pc, target))
            del ways[self.config.btb_ways:]


def misprediction_delay(predicted: Prediction, taken: bool, target: int,
                        config: BranchConfig) -> float:
    """Cycles of frontend stall charged for this prediction.

    Zero when the direction is right and, for taken branches, the target is
    right too; otherwise the configured penalty.  A disabled unit never stalls.
    """
    if not config.enabled:
        return 0.0
    correct = predicted.taken == taken and (not taken or predicted.target == target)
    return 0.0 if correct else config.misprediction_penalty
