"""Branch prediction: gshare direction predictor + indirect-target table.

Table 1 of the paper specifies a gshare predictor with 64K entries; this is
the classic design — a table of 2-bit saturating counters indexed by the
XOR of the branch PC and the global history register.

Trace-driven convention: the predictor is consulted at fetch with the
current history, then the history and counters are updated with the
*actual* outcome immediately (equivalent to a machine with perfect history
repair; standard for trace-driven models).  Direct branches and jumps are
assumed to hit a perfect BTB — their targets are encoded in the
instruction — while indirect jumps (``JR``) use a last-target predictor
and mispredict whenever the target changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PredictorStats:
    """Direction/target prediction counters."""

    conditional: int = 0
    cond_mispredicts: int = 0
    indirect: int = 0
    indirect_mispredicts: int = 0

    @property
    def mispredicts(self) -> int:
        return self.cond_mispredicts + self.indirect_mispredicts

    @property
    def cond_accuracy(self) -> float:
        return 1.0 - self.cond_mispredicts / self.conditional if self.conditional else 1.0


class GsharePredictor:
    """Gshare with 2-bit counters and a global history register."""

    def __init__(self, entries: int = 64 * 1024, history_bits: int = 16) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.mask = entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        # Counters start weakly taken (2), the usual initialisation.
        self.table = [2] * entries
        self.history = 0
        self.stats = PredictorStats()

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self.mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict direction of the branch at ``pc``, then train with
        ``taken``; returns True when the prediction was correct."""
        index = self._index(pc)
        counter = self.table[index]
        prediction = counter >= 2
        correct = prediction == taken
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        else:
            if counter > 0:
                self.table[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.history_mask
        self.stats.conditional += 1
        if not correct:
            self.stats.cond_mispredicts += 1
        return correct



class IndirectPredictor:
    """Last-target predictor for ``JR``: predicts the previously seen target."""

    def __init__(self, entries: int = 4096) -> None:
        self.entries = entries
        self._table: Dict[int, int] = {}
        self.stats = PredictorStats()

    def predict_and_update(self, pc: int, target: int) -> bool:
        """Predict the target of the indirect jump at ``pc``; train; return
        True when correct (first encounter counts as a mispredict)."""
        key = pc % self.entries
        predicted = self._table.get(key)
        correct = predicted == target
        self._table[key] = target
        self.stats.indirect += 1
        if not correct:
            self.stats.indirect_mispredicts += 1
        return correct
