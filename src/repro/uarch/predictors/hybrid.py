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
        self._bimodal = np.empty(self.bimodal_entries, dtype=np.int8)
        self._global = np.empty(self.global_entries, dtype=np.int8)
        self._chooser = np.empty(self.chooser_entries, dtype=np.int8)
        self._history = 0
        self.reset()

    def reset(self) -> None:
        self._bimodal.fill(2)
        self._global.fill(2)
        # Weakly prefer the global component.
        self._chooser.fill(2)
        self._history = 0

    def storage_bits(self) -> int:
        return (
            2 * self.bimodal_entries
            + 2 * self.global_entries
            + 2 * self.chooser_entries
            + self.history_bits
        )

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        bimodal, glob, chooser = self._bimodal, self._global, self._chooser
        bi_idx = (pc >> 2) & (self.bimodal_entries - 1)
        gl_idx = ((pc >> 2) ^ self._history) & (self.global_entries - 1)
        ch_idx = (pc >> 2) & (self.chooser_entries - 1)
        bi_counter = bimodal.item(bi_idx)
        gl_counter = glob.item(gl_idx)
        bi_pred = 1 if bi_counter >= 2 else 0
        gl_pred = 1 if gl_counter >= 2 else 0
        choice = chooser.item(ch_idx)
        prediction = gl_pred if choice >= 2 else bi_pred

        # Train the chooser toward whichever component was right.
        if bi_pred != gl_pred:
            if gl_pred == outcome:
                if choice < 3:
                    chooser[ch_idx] = choice + 1
            elif choice > 0:
                chooser[ch_idx] = choice - 1
        # Train both components.
        if outcome:
            if bi_counter < 3:
                bimodal[bi_idx] = bi_counter + 1
            if gl_counter < 3:
                glob[gl_idx] = gl_counter + 1
        else:
            if bi_counter > 0:
                bimodal[bi_idx] = bi_counter - 1
            if gl_counter > 0:
                glob[gl_idx] = gl_counter - 1
        self._history = ((self._history << 1) | outcome) & ((1 << self.history_bits) - 1)
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
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
            bi_pre = vector.counter_scan(pcs & bi_mask, delta, self._bimodal, 0, 3)
            gl_pre = vector.counter_scan(
                (pcs ^ hist) & gl_mask, delta, self._global, 0, 3
            )
            bi_pred = bi_pre >= 2
            gl_pred = gl_pre >= 2
            # The chooser is read and trained only where the components
            # disagree; elsewhere the prediction is the bimodal one.
            # Where they disagree, exactly one component is right, so
            # the choice misses iff it picks the other one.
            split = np.flatnonzero(bi_pred != gl_pred)
            global_right = gl_pred[split] == taken[split]
            ch_pre = vector.counter_scan(
                pcs[split] & ch_mask,
                np.where(global_right, np.int8(1), np.int8(-1)),
                self._chooser,
                0,
                3,
            )
            chunk_mis = mis[start:stop]
            np.not_equal(bi_pred, taken, out=chunk_mis)
            chunk_mis[split] = global_right != (ch_pre >= 2)
        self._history = history
        return mis
