"""Tournament predictor in the style of the Alpha 21264 (Kessler, 1999).

A *local* two-level component (per-branch history → 3-bit counters) and
a *global* component (path history → 2-bit counters) arbitrated by a
global-history-indexed chooser.  Differs from our Xeon-style
:class:`~repro.uarch.predictors.hybrid.HybridPredictor` in both the
local-history first component and the chooser indexing — a useful
contrast when studying which organizations are layout-sensitive, since
the local component's BHT is pc-indexed (aliasable) while its PHT is
history-indexed (not).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class TournamentPredictor(BranchPredictor):
    """Local/global tournament with a history-indexed chooser.

    Default geometry is the 21264's, scaled to this repository's trace
    scale (like every other predictor here): 512-entry 8-bit local
    history table, 512-entry 3-bit local PHT index space scaled down,
    2048-entry global and chooser tables on 8 bits of global history.
    """

    def __init__(
        self,
        local_history_entries: int = 512,
        local_history_bits: int = 8,
        global_entries: int = 2048,
        history_bits: int = 8,
        name: str = "tournament",
    ) -> None:
        self.local_history_entries = require_power_of_two(
            local_history_entries, "local history entries"
        )
        if not 1 <= local_history_bits <= 16:
            raise ConfigurationError(
                f"local_history_bits must be in [1, 16], got {local_history_bits}"
            )
        self.local_history_bits = local_history_bits
        self.local_pht_entries = 1 << local_history_bits
        self.global_entries = require_power_of_two(global_entries, "global entries")
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = name
        self.reset()

    def reset(self) -> None:
        self._local_history = [0] * self.local_history_entries
        # 3-bit counters, 4 = weakly taken.
        self._local_pht = [4] * self.local_pht_entries
        self._global_pht = [2] * self.global_entries
        # Chooser: >= 2 selects the global component (21264 convention).
        self._chooser = [2] * self.global_entries
        self._history = 0

    def storage_bits(self) -> int:
        return (
            self.local_history_bits * self.local_history_entries
            + 3 * self.local_pht_entries
            + 2 * self.global_entries
            + 2 * self.global_entries
            + self.history_bits
        )

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        lh_idx = (pc >> 2) & (self.local_history_entries - 1)
        local_history = self._local_history[lh_idx]
        local_counter = self._local_pht[local_history]
        local_pred = 1 if local_counter >= 4 else 0

        gl_idx = self._history & (self.global_entries - 1)
        global_counter = self._global_pht[gl_idx]
        global_pred = 1 if global_counter >= 2 else 0

        use_global = self._chooser[gl_idx] >= 2
        prediction = global_pred if use_global else local_pred

        # Chooser trains toward the component that was right.
        if local_pred != global_pred:
            chooser = self._chooser[gl_idx]
            if global_pred == outcome:
                if chooser < 3:
                    self._chooser[gl_idx] = chooser + 1
            elif chooser > 0:
                self._chooser[gl_idx] = chooser - 1
        # Train both components.
        if outcome:
            if local_counter < 7:
                self._local_pht[local_history] = local_counter + 1
            if global_counter < 3:
                self._global_pht[gl_idx] = global_counter + 1
        else:
            if local_counter > 0:
                self._local_pht[local_history] = local_counter - 1
            if global_counter > 0:
                self._global_pht[gl_idx] = global_counter - 1
        self._local_history[lh_idx] = ((local_history << 1) | outcome) & (
            self.local_pht_entries - 1
        )
        self._history = ((self._history << 1) | outcome) & (
            (1 << self.history_bits) - 1
        )
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # Index math is shared with predict_and_update (pc unmasked);
        # the old fused loop truncated the pc to 31 bits and silently
        # diverged from the scalar path on high addresses.
        local_history_table = np.array(self._local_history, dtype=np.int64)
        local_pht = np.array(self._local_pht, dtype=np.int8)
        global_pht = np.array(self._global_pht, dtype=np.int8)
        chooser_table = np.array(self._chooser, dtype=np.int8)
        lh_mask = self.local_history_entries - 1
        gl_mask = self.global_entries - 1
        history = self._history
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            outc = outcomes[start:stop]
            taken = outc == 1
            delta = (2 * outc - 1).astype(np.int8)
            local = vector.local_history_scan(
                (addresses[start:stop] >> 2) & lh_mask,
                outc,
                local_history_table,
                self.local_history_bits,
            )
            local_pre = vector.counter_scan(local, delta, local_pht, 0, 7)
            hist, history = vector.shifted_histories(
                self.history_bits, outc, history
            )
            gl_idx = hist & gl_mask
            local_pred = local_pre >= 4
            global_pred = vector.counter_scan(gl_idx, delta, global_pht, 0, 3) >= 2
            # The chooser is read and trained only where the components
            # disagree (see HybridPredictor.scan).
            split = np.flatnonzero(local_pred != global_pred)
            global_right = global_pred[split] == taken[split]
            ch_pre = vector.counter_scan(
                gl_idx[split],
                np.where(global_right, np.int8(1), np.int8(-1)),
                chooser_table,
                0,
                3,
            )
            chunk_mis = mis[start:stop]
            np.not_equal(local_pred, taken, out=chunk_mis)
            chunk_mis[split] = global_right != (ch_pre >= 2)
        self._local_history = local_history_table.tolist()
        self._local_pht = local_pht.tolist()
        self._global_pht = global_pht.tolist()
        self._chooser = chooser_table.tolist()
        self._history = history
        return mis
