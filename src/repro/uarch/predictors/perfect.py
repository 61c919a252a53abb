"""The perfect (oracle) predictor — the accuracy ceiling.

MASE's perfect branch prediction model (§3.2) and the 0-MPKI point of
Table 1 / Figure 8 correspond to this predictor.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.predictors.base import BranchPredictor


class PerfectPredictor(BranchPredictor):
    """Always predicts correctly; 0 MPKI by construction."""

    name = "perfect"

    def reset(self) -> None:
        """No state to reset."""

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        return True

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return np.zeros(addresses.size, dtype=bool)
