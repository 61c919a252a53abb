"""Static (history-free) predictors — the accuracy floor."""

from __future__ import annotations

import numpy as np

from repro.uarch.predictors.base import BranchPredictor


class AlwaysTakenPredictor(BranchPredictor):
    """Predict taken for every branch."""

    name = "always-taken"

    def reset(self) -> None:
        """No state to reset."""

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        return outcome == 1

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return outcomes == 0


class AlwaysNotTakenPredictor(BranchPredictor):
    """Predict not-taken for every branch."""

    name = "always-not-taken"

    def reset(self) -> None:
        """No state to reset."""

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        return outcome == 0

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        return outcomes == 1
