"""Branch prediction unit: BTB with LRU sets plus a TAGE-style direction predictor.

Predictor state only: the parameters are a `machine.BranchConfig`, read
through attributes, so this module imports nothing from the package.
Prediction outcomes depend only on the branch event stream (program counters
and actual outcomes), never on simulated time, so predictor state can be
driven once per trace and its verdicts reused across accelerated reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

_TAG_BITS = 12
_TAG_MASK = (1 << _TAG_BITS) - 1


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

    The direction predictor keeps a bimodal base table of 2-bit counters and,
    per history length, a tagged table of (tag, 3-bit counter, useful bit)
    indexed by pc hashed with that slice of the global history.  The provider
    is the longest-history tag hit; the base table answers otherwise.  The
    history is folded once per update, for every table's index and tag, so a
    lookup only hashes the pc into those folds.
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
        self._set_history(0)

    def _set_history(self, ghr: int) -> None:
        self.ghr = ghr
        bits = self.config.tage_entries_log2
        self._folds = [(_fold(ghr, n, bits),
                        _fold(ghr, n, _TAG_BITS) ^ (_fold(ghr, n, _TAG_BITS - 1) << 1))
                       for n in self.config.history_lengths]

    def _lookup(self, pc: int) -> tuple[list[tuple[int, int]], int | None, int | None, bool]:
        """The pc's (index, tag) in every tagged table; the provider and
        alternate tables (the longest and next-longest tag hits, or None);
        and the predicted direction."""
        hashed = pc ^ (pc >> self.config.tage_entries_log2)
        mask = self._mask
        slots = [((hashed ^ f_index) & mask, (pc ^ f_tag) & _TAG_MASK)
                 for f_index, f_tag in self._folds]
        provider = alt = None
        for table in range(len(slots) - 1, -1, -1):
            idx, tag = slots[table]
            if self.tags[table][idx] == tag:
                if provider is not None:
                    alt = table
                    break
                provider = table
        if provider is None:
            return slots, None, None, self.base[pc & mask] >= 2
        return slots, provider, alt, self.ctrs[provider][slots[provider][0]] >= 4

    def btb_lookup(self, pc: int) -> int | None:
        ways = self.btb[pc % self.config.btb_sets]
        for tag, target in ways:
            if tag == pc:
                return target
        return None

    def predict(self, pc: int, kind: str) -> Prediction:
        """Predict direction and target for a branch at `pc`; state unchanged."""
        return Prediction(taken=self._lookup(pc)[3], target=self.btb_lookup(pc))

    def update(self, pc: int, taken: bool, target: int) -> Prediction:
        """Train tables with the actual outcome; returns what `predict` gave before."""
        slots, provider, alt, predicted = self._lookup(pc)
        prediction = Prediction(taken=predicted, target=self.btb_lookup(pc))
        base_idx = pc & self._mask

        if provider is not None:
            idx = slots[provider][0]
            if alt is not None:
                alt_taken = self.ctrs[alt][slots[alt][0]] >= 4
            else:
                alt_taken = self.base[base_idx] >= 2
            if predicted != alt_taken:
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

        self._set_history(((self.ghr << 1) | int(taken)) & self._ghr_mask)

        if target:
            ways = self.btb[pc % self.config.btb_sets]
            for i, (tag, _) in enumerate(ways):
                if tag == pc:
                    del ways[i]
                    break
            ways.insert(0, (pc, target))
            del ways[self.config.btb_ways:]
        return prediction


def misprediction_delay(predicted: Prediction, taken: bool, target: int, config) -> float:
    """Cycles of frontend stall charged for this prediction.

    Zero when the direction is right and, for taken branches, the target is
    right too; otherwise the configured penalty.  A disabled unit never stalls.
    """
    if not config.enabled:
        return 0.0
    correct = predicted.taken == taken and (not taken or predicted.target == target)
    return 0.0 if correct else config.misprediction_penalty
