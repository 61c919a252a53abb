"""Indirect-branch target predictors (§4.1).

"A branch target buffer (BTB) or indirect branch predictor would use
lower-order bits of the branch address to index a table of branch
targets" — making indirect-target prediction another address-hashed,
layout-sensitive structure.  Two designs are provided:

* :class:`LastTargetPredictor` — the classic BTB policy: predict the
  target seen last time at this (hashed) pc.  What Core-era hardware
  shipped.
* :class:`IttageLitePredictor` — a small history-indexed design in the
  spirit of ITTAGE: the table index mixes the pc with a hash of recent
  *targets*, capturing dispatch-site patterns the last-target policy
  misses.

Both consume the trace's ``targets`` array (id -1 marks ordinary
conditional branches, which are skipped).
"""

from __future__ import annotations

import numpy as np

from repro.program.behavior import TARGET_HISTORY_MASK, update_target_history
from repro.uarch import vector
from repro.uarch.predictors.base import require_power_of_two


class LastTargetPredictor(vector.Structure):
    """Predict the previously observed target at the hashed pc."""

    def __init__(self, entries: int = 512, name: str | None = None) -> None:
        self.entries = require_power_of_two(entries, "target-table entries")
        self.name = name if name is not None else f"last-target-{entries}"
        self._table: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Empty the target table."""
        self._table = [-1] * self.entries

    def predict_and_update(self, pc: int, target: int) -> bool:
        """Predict/update for one indirect branch; True when correct."""
        idx = (pc >> 2) & (self.entries - 1)
        predicted = self._table[idx]
        self._table[idx] = target
        return predicted == target

    def step(self, pc: int, target: int) -> bool:
        """One event: True on a mispredicted indirect branch.

        Events with ``target < 0`` (conditional branches) are skipped.
        """
        return target >= 0 and not self.predict_and_update(pc, target)

    def scan(self, addresses: np.ndarray, targets: np.ndarray) -> np.ndarray:
        table = np.array(self._table, dtype=np.int64)
        events = np.nonzero(targets >= 0)[0]
        idx = (addresses[events] >> 2) & (self.entries - 1)
        tgt = targets[events]
        misses = np.zeros(int(addresses.size), dtype=bool)
        for start, stop in vector.iter_chunks(int(events.size)):
            prev = vector.last_value_scan(idx[start:stop], tgt[start:stop], table)
            misses[events[start:stop]] = prev != tgt[start:stop]
        self._table = table.tolist()
        return misses


class IttageLitePredictor(vector.Structure):
    """Target table indexed by (pc XOR hash of recent targets).

    A two-component simplification of ITTAGE: a history-indexed table
    backed by a last-target base table; the history component wins when
    it has seen this (pc, history) pair before.
    """

    def __init__(
        self, entries: int = 1024, base_entries: int = 512, name: str | None = None
    ) -> None:
        self.entries = require_power_of_two(entries, "ittage history entries")
        self.base_entries = require_power_of_two(base_entries, "ittage base entries")
        self.name = name if name is not None else f"ittage-lite-{entries}"
        self._history_table: list[int] = []
        self._base_table: list[int] = []
        self._target_history = 0
        self.reset()

    def reset(self) -> None:
        """Empty both tables and the target history."""
        self._history_table = [-1] * self.entries
        self._base_table = [-1] * self.base_entries
        self._target_history = 0

    def predict_and_update(self, pc: int, target: int) -> bool:
        """Predict/update for one indirect branch; True when correct."""
        pc2 = pc >> 2
        hist_idx = (pc2 ^ self._target_history) & (self.entries - 1)
        base_idx = pc2 & (self.base_entries - 1)
        predicted = self._history_table[hist_idx]
        if predicted < 0:
            predicted = self._base_table[base_idx]
        correct = predicted == target
        self._history_table[hist_idx] = target
        self._base_table[base_idx] = target
        self._target_history = update_target_history(self._target_history, target)
        return correct

    step = LastTargetPredictor.step

    def scan(self, addresses: np.ndarray, targets: np.ndarray) -> np.ndarray:
        history_table = np.array(self._history_table, dtype=np.int64)
        base_table = np.array(self._base_table, dtype=np.int64)
        events = np.nonzero(targets >= 0)[0]
        pcs = addresses[events] >> 2
        tgt = targets[events]
        target_history = self._target_history
        history_bits = TARGET_HISTORY_MASK.bit_length()
        misses = np.zeros(int(addresses.size), dtype=bool)
        for start, stop in vector.iter_chunks(int(events.size)):
            chunk_tgt = tgt[start:stop]
            hist, target_history = vector.shifted_histories(
                history_bits,
                # repro: allow-VEC001 deliberate truncation mirrored by the oracle — update_target_history applies the identical `target & 7` before folding, so both engines keep exactly the 3 low target bits
                chunk_tgt & 7,
                target_history,
                shift=3,
            )
            hist_prev = vector.last_value_scan(
                (pcs[start:stop] ^ hist) & (self.entries - 1),
                chunk_tgt,
                history_table,
            )
            base_prev = vector.last_value_scan(
                pcs[start:stop] & (self.base_entries - 1),
                chunk_tgt,
                base_table,
            )
            predicted = np.where(hist_prev >= 0, hist_prev, base_prev)
            misses[events[start:stop]] = predicted != chunk_tgt
        self._history_table = history_table.tolist()
        self._base_table = base_table.tolist()
        self._target_history = target_history
        return misses
