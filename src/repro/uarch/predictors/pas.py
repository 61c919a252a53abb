"""PAs two-level adaptive predictor (Yeh & Patt): per-address history.

Each static branch (hashed by address) keeps its own local history
register, which selects within per-address-set pattern history tables.
Captures self-correlated patterns (loops) that global history misses,
at the cost of two address-hashed tables that can both alias.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class PAsPredictor(BranchPredictor):
    """Local-history two-level predictor.

    ``bht_entries`` local history registers of ``history_bits`` bits,
    indexed by pc; a PHT of ``pht_entries`` 2-bit counters indexed by
    ``(pc_bits << h) | local_history``.
    """

    def __init__(
        self,
        bht_entries: int = 1024,
        pht_entries: int = 16384,
        history_bits: int = 10,
        name: str | None = None,
    ) -> None:
        self.bht_entries = require_power_of_two(bht_entries, "PAs BHT entries")
        self.pht_entries = require_power_of_two(pht_entries, "PAs PHT entries")
        if (1 << history_bits) > pht_entries:
            raise ConfigurationError("history bits exceed PHT index width")
        self.history_bits = history_bits
        self.address_bits = (pht_entries.bit_length() - 1) - history_bits
        self.name = name if name is not None else f"PAs-{pht_entries}x{history_bits}"
        self._bht: list[int] = []
        self._pht: list[int] = []
        self.reset()

    def reset(self) -> None:
        self._bht = [0] * self.bht_entries
        self._pht = [2] * self.pht_entries

    def storage_bits(self) -> int:
        return self.history_bits * self.bht_entries + 2 * self.pht_entries

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        bht_idx = (pc >> 2) & (self.bht_entries - 1)
        local = self._bht[bht_idx]
        addr_part = (pc >> 2) & ((1 << self.address_bits) - 1)
        pht_idx = (addr_part << self.history_bits) | local
        counter = self._pht[pht_idx]
        prediction = 1 if counter >= 2 else 0
        if outcome:
            if counter < 3:
                self._pht[pht_idx] = counter + 1
        elif counter > 0:
            self._pht[pht_idx] = counter - 1
        self._bht[bht_idx] = ((local << 1) | outcome) & ((1 << self.history_bits) - 1)
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        bht = np.array(self._bht, dtype=np.int64)
        pht = np.array(self._pht, dtype=np.int8)
        addr_mask = (1 << self.address_bits) - 1
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            pcs = addresses[start:stop] >> 2
            outc = outcomes[start:stop]
            local = vector.local_history_scan(
                pcs & (self.bht_entries - 1), outc, bht, self.history_bits
            )
            pht_idx = ((pcs & addr_mask) << self.history_bits) | local
            delta = (2 * outc - 1).astype(np.int8)
            pre = vector.counter_scan(pht_idx, delta, pht, 0, 3)
            np.not_equal(pre >= 2, outc == 1, out=mis[start:stop])
        self._bht = bht.tolist()
        self._pht = pht.tolist()
        return mis
