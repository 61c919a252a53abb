"""Branch predictor interface."""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.uarch.vector import Structure


def require_power_of_two(value: int, what: str) -> int:
    """Validate that *value* is a positive power of two and return it."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")
    return value


class BranchPredictor(Structure):
    """A conditional branch direction predictor.

    Predictors are stateful; :meth:`reset` restores the power-on state so
    one instance can be reused across runs ("we control the initial
    conditions of the simulator", §7.2).  Bulk simulation goes through
    the inherited :meth:`~repro.uarch.vector.Structure.simulate` over
    ``(addresses, outcomes)``: a miss is a misprediction, the oracle
    :meth:`step` is the negation of :meth:`predict_and_update`, and
    every predictor supplies the vector ``scan`` kernel.
    """

    #: Human-readable predictor name (e.g. ``"GAs-8KB"``).
    name: str = "predictor"

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        """Predict the branch at *pc*, then train with *outcome*.

        Returns True when the prediction was correct.  A predictor
        defines this or :meth:`step`; each is the negation of the other.
        """
        return not self.step(pc, outcome)

    def step(self, pc: int, outcome: int) -> bool:
        """Predict and train on one branch; True on a misprediction."""
        return not self.predict_and_update(pc, outcome)

    def storage_bits(self) -> int:
        """Approximate hardware budget of the prediction tables, in bits."""
        return 0

    def mpki(
        self,
        addresses: np.ndarray,
        outcomes: np.ndarray,
        instructions: int,
        warmup: int = 0,
    ) -> units.Mpki:
        """Convenience: mispredictions per kilo retired instruction."""
        if instructions <= 0:
            raise ConfigurationError(f"instructions must be positive, got {instructions}")
        mispredicts = self.simulate(addresses, outcomes, warmup=warmup)
        return units.mpki(mispredicts, instructions)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
