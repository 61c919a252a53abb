"""Perceptron predictor (Jiménez & Lin, HPCA 2001).

Included as an extension beyond the paper's predictor set: a
neural-inspired predictor whose weights table is indexed by branch
address, making it — like every other table here — sensitive to code
layout.  Useful for exercising the evaluator on a predictor family with
very different aliasing behaviour from 2-bit counter tables.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron with the standard training threshold."""

    def __init__(
        self,
        entries: int = 512,
        history_bits: int = 16,
        name: str | None = None,
    ) -> None:
        self.entries = require_power_of_two(entries, "perceptron entries")
        if not 1 <= history_bits <= 32:
            raise ConfigurationError(f"history_bits must be in [1, 32], got {history_bits}")
        self.history_bits = history_bits
        # Jiménez & Lin's empirically optimal threshold.
        self.threshold = int(1.93 * history_bits + 14)
        self.weight_limit = 127
        self.name = name if name is not None else f"perceptron-{entries}x{history_bits}"
        self._weights: list[list[int]] = []
        self._history: list[int] = []
        self.reset()

    def reset(self) -> None:
        self._weights = [[0] * (self.history_bits + 1) for _ in range(self.entries)]
        # Bipolar history: +1 taken, -1 not taken.
        self._history = [1] * self.history_bits

    def storage_bits(self) -> int:
        return 8 * (self.history_bits + 1) * self.entries

    # The oracle: defining step keeps the scalar engine at one call per
    # event (see TagePredictor.step).
    def step(self, pc: int, outcome: int) -> bool:
        idx = (pc >> 2) & (self.entries - 1)
        weights = self._weights[idx]
        history = self._history
        total = weights[0]
        for i in range(self.history_bits):
            total += weights[i + 1] * history[i]
        prediction = 1 if total >= 0 else 0
        target = 1 if outcome else -1
        if prediction != outcome or abs(total) <= self.threshold:
            limit = self.weight_limit
            w = weights[0] + target
            weights[0] = max(-limit, min(limit, w))
            for i in range(self.history_bits):
                w = weights[i + 1] + target * history[i]
                weights[i + 1] = max(-limit, min(limit, w))
        history.pop()
        history.insert(0, target)
        return prediction != outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # A weight row is touched only by its own entry's events, and the
        # bipolar history is a function of the outcome stream alone, so
        # round r applies every entry's r-th event at once: dot product,
        # threshold test and clipped update, as in counter_scan's rounds.
        bits = self.history_bits
        limit = self.weight_limit
        weights = np.array(self._weights, dtype=np.int32)
        n = int(addresses.size)
        misses = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            targets = outcomes[start:stop].astype(np.int8) * 2 - 1
            past = np.concatenate(
                [np.array(self._history[::-1], dtype=np.int8), targets]
            )
            self._history = past[: -bits - 1 : -1].tolist()
            # Row e: the bias input, then history[i] = target i+1 back.
            inputs = np.ones((stop - start, bits + 1), dtype=np.int8)
            inputs[:, 1:] = sliding_window_view(past[:-1], bits)[:, ::-1]
            index = (addresses[start:stop] >> 2) & (self.entries - 1)
            groups = vector.IndexGroups(index, self.entries)
            by_rank, bounds = groups.rounds()
            events = groups.order[by_rank]
            entry = groups.entry[by_rank]
            inputs = inputs[events]
            targets = targets[events]
            taken = targets > 0
            missed = np.empty(events.size, dtype=bool)
            for r in range(len(bounds) - 1):
                sl = slice(bounds[r], bounds[r + 1])
                g = entry[sl]
                x = inputs[sl]
                w = weights[g]
                total = np.einsum("ij,ij->i", w, x)
                wrong = (total >= 0) != taken[sl]
                missed[sl] = wrong
                train = wrong | (np.abs(total) <= self.threshold)
                trained = w[train] + targets[sl][train, None] * x[train]
                weights[g[train]] = np.minimum(np.maximum(trained, -limit), limit)
            misses[start:stop][events] = missed
        self._weights = weights.tolist()
        return misses
