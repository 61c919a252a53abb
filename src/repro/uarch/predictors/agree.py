"""Agree predictor (Sprangle et al., ISCA 1997).

An anti-aliasing design directly relevant to this paper's mechanism:
instead of predicting taken/not-taken, the PHT predicts whether the
branch will *agree* with a per-branch bias bit.  Two aliasing branches
that both usually agree with their biases now reinforce rather than
fight each other, converting destructive interference into neutral or
constructive interference (§6.1's "aliasing").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class AgreePredictor(BranchPredictor):
    """Gshare-indexed agree predictor with first-outcome bias bits.

    The bias table is indexed by pc (as the BTB-resident bias bits of
    the original proposal); a bias entry is set by the branch's first
    executed outcome.  The 2-bit PHT then learns agreement.
    """

    def __init__(
        self,
        entries: int = 4096,
        history_bits: int = 8,
        bias_entries: int = 2048,
        name: str | None = None,
    ) -> None:
        self.entries = require_power_of_two(entries, "agree PHT entries")
        self.bias_entries = require_power_of_two(bias_entries, "agree bias entries")
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = name if name is not None else f"agree-{entries}x{history_bits}"
        self._pht: list[int] = []
        self._bias: list[int] = []
        self._history = 0
        self.reset()

    def reset(self) -> None:
        # PHT counters predict "agree" (>= 2 means agree); biased to agree.
        self._pht = [3] * self.entries
        # Bias bits: -1 = unset, else 0/1 (first observed outcome).
        self._bias = [-1] * self.bias_entries
        self._history = 0

    def storage_bits(self) -> int:
        return 2 * self.entries + self.bias_entries + self.history_bits

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        bias_idx = (pc >> 2) & (self.bias_entries - 1)
        bias = self._bias[bias_idx]
        if bias < 0:
            # First encounter: install the bias, predict it directly.
            self._bias[bias_idx] = outcome
            self._update_history(outcome)
            return True
        pht_idx = ((pc >> 2) ^ self._history) & (self.entries - 1)
        counter = self._pht[pht_idx]
        agree_prediction = counter >= 2
        prediction = bias if agree_prediction else 1 - bias
        agreed = outcome == bias
        if agreed:
            if counter < 3:
                self._pht[pht_idx] = counter + 1
        elif counter > 0:
            self._pht[pht_idx] = counter - 1
        self._update_history(outcome)
        return prediction == outcome

    def _update_history(self, outcome: int) -> None:
        self._history = ((self._history << 1) | outcome) & (
            (1 << self.history_bits) - 1
        )

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # Index math is shared with predict_and_update (pc unmasked);
        # the old fused loop truncated the pc to 31 bits and silently
        # diverged from the scalar path on high addresses.
        pht = np.array(self._pht, dtype=np.int8)
        bias_table = np.array(self._bias, dtype=np.int8)
        pht_mask = self.entries - 1
        bias_mask = self.bias_entries - 1
        history = self._history
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            pcs = addresses[start:stop] >> 2
            outc = outcomes[start:stop]
            hist, history = vector.shifted_histories(
                self.history_bits, outc, history
            )
            bias, installed = vector.sticky_install_scan(
                pcs & bias_mask, outc, bias_table
            )
            # Installing events predict trivially and skip PHT training;
            # a zero delta keeps them inert in the counter scan.
            delta = np.where(
                installed, 0, np.where(bias == outc, 1, -1)
            ).astype(np.int8)
            pre = vector.counter_scan((pcs ^ hist) & pht_mask, delta, pht, 0, 3)
            prediction = np.where(pre >= 2, bias, 1 - bias)
            mis[start:stop] = ~installed & (prediction != outc)
        self._pht = pht.tolist()
        self._bias = bias_table.tolist()
        self._history = history
        return mis
