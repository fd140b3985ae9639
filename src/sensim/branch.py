"""Branch prediction unit: BTB with LRU sets plus a TAGE-style direction predictor.

Predictor state only: the parameters are a `machine.BranchConfig`, read
through attributes, so this module imports nothing from the package.
Prediction outcomes depend only on the branch event stream (program counters
and actual outcomes), never on simulated time, so predictor state can be
driven once per trace and its verdicts reused across accelerated reruns.
"""

from __future__ import annotations

from typing import NamedTuple

_TAG_BITS = 12
_TAG_MASK = (1 << _TAG_BITS) - 1


class Prediction(NamedTuple):
    taken: bool
    target: int | None


class PredictorState:
    """Mutable predictor state, private to one simulation run.

    The direction predictor keeps a bimodal base table of 2-bit counters and,
    per history length, a tagged table of (tag, 3-bit counter, useful bit)
    indexed by pc hashed with that slice of the global history.  The provider
    is the longest-history tag hit; the base table answers otherwise.  Each
    table's index fold and 12- and 11-bit tag folds of its history slice are
    shift registers that every branch advances in O(1) (Seznec & Michaud,
    JILP 2006), so a lookup only hashes the pc into them.
    """

    def __init__(self, config):
        self.config = config
        n = 1 << config.tage_entries_log2
        tables = len(config.history_lengths)
        self._mask = n - 1
        self.base = [0] * n
        self.tags = [[-1] * n for _ in range(tables)]
        self.ctrs = [[0] * n for _ in range(tables)]
        self.useful = [[0] * n for _ in range(tables)]
        self._ghr_mask = (1 << config.history_lengths[-1]) - 1
        self.btb: list[list[tuple[int, int]]] = [[] for _ in range(config.btb_sets)]
        self.ghr = 0
        # per fold: the history bit it drops, its width less one, its mask and
        # the bit that the dropped outcome sits on after the rotation
        self._registers = [(n - 1, w - 1, (1 << w) - 1, n % w) for n in config.history_lengths
                           for w in (config.tage_entries_log2, _TAG_BITS, _TAG_BITS - 1)]
        self._folds = [0] * len(self._registers)

    def _lookup(self, pc: int):
        """The pc's (index, tag) in every tagged table; the provider and
        alternate tables (the longest and next-longest tag hits, or None); the
        prediction; and the pc's BTB set with the way that holds the pc (or None)."""
        hashed = pc ^ (pc >> self.config.tage_entries_log2)
        mask = self._mask
        folds = iter(self._folds)
        slots = [((hashed ^ f_index) & mask, (pc ^ f_tag ^ (f_tag11 << 1)) & _TAG_MASK)
                 for f_index, f_tag, f_tag11 in zip(folds, folds, folds)]
        provider = alt = None
        for table in range(len(slots) - 1, -1, -1):
            idx, tag = slots[table]
            if self.tags[table][idx] == tag:
                if provider is not None:
                    alt = table
                    break
                provider = table
        ways = self.btb[pc % self.config.btb_sets]
        hit = next((i for i, (tag, _) in enumerate(ways) if tag == pc), None)
        prediction = Prediction(taken=self._taken(provider, slots, pc),
                                target=None if hit is None else ways[hit][1])
        return slots, provider, alt, prediction, ways, hit

    def _taken(self, table: int | None, slots: list[tuple[int, int]], pc: int) -> bool:
        """The direction a tagged table, or the base table if None, gives the pc."""
        if table is None:
            return self.base[pc & self._mask] >= 2
        return self.ctrs[table][slots[table][0]] >= 4

    def predict(self, pc: int, kind: str) -> Prediction:
        """Predict direction and target for a branch at `pc`; state unchanged."""
        return self._lookup(pc)[3]

    def update(self, pc: int, taken: bool, target: int) -> Prediction:
        """Train tables with the actual outcome; returns what `predict` gave before."""
        slots, provider, alt, prediction, ways, hit = self._lookup(pc)
        predicted = prediction.taken
        base_idx = pc & self._mask

        if provider is not None:
            idx = slots[provider][0]
            if predicted != self._taken(alt, slots, pc):
                self.useful[provider][idx] = 1 if predicted == taken else 0
            ctr = self.ctrs[provider][idx]
            self.ctrs[provider][idx] = min(7, ctr + 1) if taken else max(0, ctr - 1)

        b = self.base[base_idx]
        self.base[base_idx] = min(3, b + 1) if taken else max(0, b - 1)

        if predicted != taken:
            longer = range(0 if provider is None else provider + 1, len(slots))
            for table in longer:
                idx, tag = slots[table]
                if self.useful[table][idx] == 0:
                    self.tags[table][idx] = tag
                    self.ctrs[table][idx] = 4 if taken else 3
                    break
            else:
                for table in longer:
                    self.useful[table][slots[table][0]] = 0

        # rotate each fold left by one, take the outcome in at bit 0 and drop
        # the outcome `length` branches back, now at bit `length % width`
        ghr, bit = self.ghr, int(taken)
        self._folds = [((f << 1 | f >> high) & mask) ^ bit ^ ((ghr >> last & 1) << out)
                       for f, (last, high, mask, out) in zip(self._folds, self._registers)]
        self.ghr = (ghr << 1 | bit) & self._ghr_mask

        if target:
            if hit is not None:
                del ways[hit]
            ways.insert(0, (pc, target))
            del ways[self.config.btb_ways:]
        return prediction


def misprediction_delay(predicted: Prediction, taken: bool, target: int, config) -> float:
    """Cycles of frontend stall charged for this prediction.

    Zero when the direction is right and, for taken branches, the target is
    right too; otherwise the configured penalty.
    """
    correct = predicted.taken == taken and (not taken or predicted.target == target)
    return 0.0 if correct else config.misprediction_penalty
