"""2bc-gskew-style skewed predictor (Michaud, Seznec & Uhlig, ISCA 1997).

The paper cites Michaud et al. for the aliasing phenomenon (§6.1); this
is their remedy: three PHT banks indexed by *different* hash functions
of (pc, history) vote by majority.  Two branches colliding in one bank
almost never collide in the other two, so the majority masks the
conflict.  Included to let users quantify how much of the real
predictor's layout sensitivity an anti-aliasing organization removes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


def _skew_hashes(pc: int, history: int, mask: int) -> tuple[int, int, int]:
    """Three decorrelated indices (simplified skewing functions)."""
    x = pc ^ history
    h1 = x & mask
    h2 = (x ^ (x >> 3) ^ (pc << 1)) & mask
    h3 = (x ^ (x >> 5) ^ (history << 2) ^ (pc >> 1)) & mask
    return h1, h2, h3


class GskewPredictor(BranchPredictor):
    """Three-bank majority-vote predictor with skewed indexing."""

    def __init__(
        self, entries_per_bank: int = 2048, history_bits: int = 8, name: str | None = None
    ) -> None:
        self.entries_per_bank = require_power_of_two(
            entries_per_bank, "gskew bank entries"
        )
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = (
            name if name is not None else f"gskew-{entries_per_bank}x{history_bits}"
        )
        self._banks: list[list[int]] = []
        self._history = 0
        self.reset()

    def reset(self) -> None:
        self._banks = [[2] * self.entries_per_bank for _ in range(3)]
        self._history = 0

    def storage_bits(self) -> int:
        return 3 * 2 * self.entries_per_bank + self.history_bits

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        mask = self.entries_per_bank - 1
        h1, h2, h3 = _skew_hashes(pc >> 2, self._history, mask)
        banks = self._banks
        votes = (
            (1 if banks[0][h1] >= 2 else 0)
            + (1 if banks[1][h2] >= 2 else 0)
            + (1 if banks[2][h3] >= 2 else 0)
        )
        prediction = 1 if votes >= 2 else 0
        correct = prediction == outcome
        # Partial update: on a correct prediction only the agreeing banks
        # train; on a misprediction every bank trains (Michaud et al.).
        for bank, idx in ((banks[0], h1), (banks[1], h2), (banks[2], h3)):
            counter = bank[idx]
            bank_prediction = 1 if counter >= 2 else 0
            if correct and bank_prediction != prediction:
                continue
            if outcome:
                if counter < 3:
                    bank[idx] = counter + 1
            elif counter > 0:
                bank[idx] = counter - 1
        self._history = ((self._history << 1) | outcome) & (
            (1 << self.history_bits) - 1
        )
        return correct

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # A fused loop, kept because it beats the oracle (no array
        # formulation exists for the majority vote's partial update
        # yet; BENCH_kernels.json, row gskew-2048x8).  Indices come
        # from the same _skew_hashes as predict_and_update: an earlier
        # version inlined the hashes over a 31-bit-truncated pc and
        # silently diverged from the scalar path on high addresses.
        mask = self.entries_per_bank - 1
        bank0, bank1, bank2 = self._banks
        hist_mask = (1 << self.history_bits) - 1
        pcs = (addresses >> 2).tolist()
        outs = outcomes.tolist()
        history = self._history
        misses = [False] * len(pcs)
        # repro: allow-PERF001 the 3-bank majority vote trains each bank only when it agreed with the prediction or the prediction missed — three counter streams coupled through one vote per event, with no counter_scan formulation yet (ROADMAP item 1)
        for i, (pc, outcome) in enumerate(zip(pcs, outs)):
            h1, h2, h3 = _skew_hashes(pc, history, mask)
            c0 = bank0[h1]
            c1 = bank1[h2]
            c2 = bank2[h3]
            votes = (1 if c0 >= 2 else 0) + (1 if c1 >= 2 else 0) + (1 if c2 >= 2 else 0)
            taken = outcome == 1
            prediction = votes >= 2
            correct = prediction == taken
            if not correct:
                misses[i] = True
            if not correct or (c0 >= 2) == prediction:
                if taken:
                    if c0 < 3:
                        bank0[h1] = c0 + 1
                elif c0 > 0:
                    bank0[h1] = c0 - 1
            if not correct or (c1 >= 2) == prediction:
                if taken:
                    if c1 < 3:
                        bank1[h2] = c1 + 1
                elif c1 > 0:
                    bank1[h2] = c1 - 1
            if not correct or (c2 >= 2) == prediction:
                if taken:
                    if c2 < 3:
                        bank2[h3] = c2 + 1
                elif c2 > 0:
                    bank2[h3] = c2 - 1
            history = ((history << 1) | outcome) & hist_mask
        self._history = history
        return np.array(misses, dtype=bool)
