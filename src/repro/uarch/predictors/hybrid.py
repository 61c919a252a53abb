"""Hybrid predictor with a chooser (Evers/Chang/Patt; McFarling).

"Through reverse-engineering experiments we have determined that [the
Xeon E5440 predictor] is likely to contain a hybrid of a GAs-style
branch predictor and a bimodal branch predictor" (§5.4).  This class is
the reference machine's predictor: a global-history component and a
bimodal component arbitrated by a 2-bit chooser table indexed by pc.
All three tables are address-hashed, so all three contribute
layout-dependent aliasing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class HybridPredictor(BranchPredictor):
    """Bimodal + gshare-hashed GAs-style global component + chooser.

    The global component indexes its PHT with
    ``((pc >> 2) ^ history) & mask`` — a GAs-class two-level scheme with
    an XOR address hash.  The chooser counts which component has been
    more accurate per (hashed) branch: >= 2 selects the global component.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        global_entries: int = 16384,
        history_bits: int = 12,
        chooser_entries: int = 4096,
        name: str = "xeon-hybrid",
    ) -> None:
        self.bimodal_entries = require_power_of_two(bimodal_entries, "bimodal entries")
        self.global_entries = require_power_of_two(global_entries, "global entries")
        self.chooser_entries = require_power_of_two(chooser_entries, "chooser entries")
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = name
        self._bimodal: list[int] = []
        self._global: list[int] = []
        self._chooser: list[int] = []
        self._history = 0
        self.reset()

    def reset(self) -> None:
        self._bimodal = [2] * self.bimodal_entries
        self._global = [2] * self.global_entries
        # Weakly prefer the global component.
        self._chooser = [2] * self.chooser_entries
        self._history = 0

    def storage_bits(self) -> int:
        return (
            2 * self.bimodal_entries
            + 2 * self.global_entries
            + 2 * self.chooser_entries
            + self.history_bits
        )

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        bi_idx = (pc >> 2) & (self.bimodal_entries - 1)
        gl_idx = ((pc >> 2) ^ self._history) & (self.global_entries - 1)
        ch_idx = (pc >> 2) & (self.chooser_entries - 1)
        bi_pred = 1 if self._bimodal[bi_idx] >= 2 else 0
        gl_pred = 1 if self._global[gl_idx] >= 2 else 0
        use_global = self._chooser[ch_idx] >= 2
        prediction = gl_pred if use_global else bi_pred

        # Train the chooser toward whichever component was right.
        if bi_pred != gl_pred:
            if gl_pred == outcome:
                if self._chooser[ch_idx] < 3:
                    self._chooser[ch_idx] += 1
            elif self._chooser[ch_idx] > 0:
                self._chooser[ch_idx] -= 1
        # Train both components.
        if outcome:
            if self._bimodal[bi_idx] < 3:
                self._bimodal[bi_idx] += 1
            if self._global[gl_idx] < 3:
                self._global[gl_idx] += 1
        else:
            if self._bimodal[bi_idx] > 0:
                self._bimodal[bi_idx] -= 1
            if self._global[gl_idx] > 0:
                self._global[gl_idx] -= 1
        self._history = ((self._history << 1) | outcome) & ((1 << self.history_bits) - 1)
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        bimodal = np.array(self._bimodal, dtype=np.int8)
        glob = np.array(self._global, dtype=np.int8)
        chooser = np.array(self._chooser, dtype=np.int8)
        bi_mask = self.bimodal_entries - 1
        gl_mask = self.global_entries - 1
        ch_mask = self.chooser_entries - 1
        history = self._history
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            pcs = addresses[start:stop] >> 2
            outc = outcomes[start:stop]
            taken = outc == 1
            hist, history = vector.shifted_histories(
                self.history_bits, outc, history
            )
            delta = (2 * outc - 1).astype(np.int8)
            bi_idx = pcs & bi_mask
            bi_groups = vector.IndexGroups(bi_idx, self.bimodal_entries)
            bi_pre = vector.counter_scan(bi_idx, delta, bimodal, 0, 3, bi_groups)
            gl_pre = vector.counter_scan(
                (pcs ^ hist) & gl_mask, delta, glob, 0, 3
            )
            bi_pred = bi_pre >= 2
            gl_pred = gl_pre >= 2
            # The chooser trains only when the components disagree; its
            # pc index equals the bimodal one whenever the geometries
            # match, so the sorted grouping is reused.
            ch_delta = np.where(
                bi_pred != gl_pred,
                np.where(gl_pred == taken, 1, -1),
                0,
            ).astype(np.int8)
            if ch_mask == bi_mask:
                ch_idx, ch_groups = bi_idx, bi_groups
            else:
                ch_idx, ch_groups = pcs & ch_mask, None
            ch_pre = vector.counter_scan(
                ch_idx, ch_delta, chooser, 0, 3, ch_groups
            )
            prediction = np.where(ch_pre >= 2, gl_pred, bi_pred)
            np.not_equal(prediction, taken, out=mis[start:stop])
        self._bimodal = bimodal.tolist()
        self._global = glob.tolist()
        self._chooser = chooser.tolist()
        self._history = history
        return mis
