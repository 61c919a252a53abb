"""Gshare predictor (McFarling): global history XOR branch address.

The XOR hash spreads each static branch across up to ``2^history_bits``
pattern-history-table entries, so layout-induced address changes
re-randomize which branches collide — the dominant source of the MPKI
variance program interferometry exploits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class GsharePredictor(BranchPredictor):
    """2-bit PHT indexed by ``((pc >> 2) ^ history) & (entries - 1)``."""

    def __init__(self, entries: int = 16384, history_bits: int = 12, name: str | None = None) -> None:
        self.entries = require_power_of_two(entries, "gshare entries")
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = name if name is not None else f"gshare-{entries}x{history_bits}"
        self._table: list[int] = []
        self._history = 0
        self.reset()

    def reset(self) -> None:
        self._table = [2] * self.entries
        self._history = 0

    def storage_bits(self) -> int:
        return 2 * self.entries + self.history_bits

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        idx = ((pc >> 2) ^ self._history) & (self.entries - 1)
        counter = self._table[idx]
        prediction = 1 if counter >= 2 else 0
        if outcome:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        self._history = ((self._history << 1) | outcome) & ((1 << self.history_bits) - 1)
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # Index math is shared with predict_and_update (pc unmasked);
        # the old fused loop truncated the pc to 31 bits and silently
        # diverged from the scalar path on high addresses.
        table = np.array(self._table, dtype=np.int8)
        index_mask = self.entries - 1
        history = self._history
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            outc = outcomes[start:stop]
            hist, history = vector.shifted_histories(
                self.history_bits, outc, history
            )
            idx = ((addresses[start:stop] >> 2) ^ hist) & index_mask
            delta = (2 * outc - 1).astype(np.int8)
            pre = vector.counter_scan(idx, delta, table, 0, 3)
            np.not_equal(pre >= 2, outc == 1, out=mis[start:stop])
        self._table = table.tolist()
        self._history = history
        return mis
