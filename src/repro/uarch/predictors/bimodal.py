"""Bimodal predictor (Smith, ISCA 1981).

A table of 2-bit saturating counters indexed by low branch-address bits.
Two branches whose addresses share the index bits *alias* in the table
(Michaud et al.'s conflict aliasing, §6.1) — which is exactly why code
reordering perturbs its accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class BimodalPredictor(BranchPredictor):
    """2-bit-counter table indexed by ``(pc >> 2) & (entries - 1)``."""

    def __init__(self, entries: int = 4096, name: str | None = None) -> None:
        self.entries = require_power_of_two(entries, "bimodal entries")
        self.name = name if name is not None else f"bimodal-{entries}"
        self._table: list[int] = []
        self.reset()

    def reset(self) -> None:
        # Weakly taken: conditional branches are taken more often than not.
        self._table = [2] * self.entries

    def storage_bits(self) -> int:
        return 2 * self.entries

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        idx = (pc >> 2) & (self.entries - 1)
        counter = self._table[idx]
        prediction = 1 if counter >= 2 else 0
        if outcome:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        table = np.array(self._table, dtype=np.int8)
        index_mask = self.entries - 1
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            idx = (addresses[start:stop] >> 2) & index_mask
            outc = outcomes[start:stop]
            delta = (2 * outc - 1).astype(np.int8)
            pre = vector.counter_scan(idx, delta, table, 0, 3)
            np.not_equal(pre >= 2, outc == 1, out=mis[start:stop])
        self._table = table.tolist()
        return mis
