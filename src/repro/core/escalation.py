"""Sample-size escalation (§6.3).

"We sample a number of code reorderings in multiples of 100 until the
benchmark is able to reject the null hypothesis, or until by inspection
we determine that the benchmark is unlikely to reject the null
hypothesis with a much larger number of samples.  ...  We do not
discard any data: we use the data from each reordering."

The protocol runs as ordinary campaigns
(:meth:`repro.harness.lab.Laboratory.escalate`): round *k* serves the
first *k* × the scale's layouts of every benchmark not yet significant,
up to :data:`MAX_ROUNDS` ("a few require 300").  This module holds the
per-round test and the result record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.model import PerformanceModel
from repro.core.observations import ObservationSet
from repro.errors import ModelError

#: Significance level of the §6.4 t-test.
ALPHA = 0.05

#: Rounds of escalation: 100, 200 and 300 layouts at ``paper`` scale.
MAX_ROUNDS = 3


def p_value(fit: Callable[[], PerformanceModel]) -> float:
    """p-value of the t-test of the CPI-on-MPKI model *fit* returns.

    A benchmark is significant when this is at most :data:`ALPHA`.
    Zero-variance MPKI raises :class:`~repro.errors.ModelError`: no
    line can be fit, so the benchmark cannot be significant and its
    p-value is taken as 1 (as in the ``significance`` table).  Anything
    else propagates — swallowing it would silently hide regressions.
    """
    try:
        return fit().significance().p_value
    except ModelError:
        return 1.0


@dataclass(frozen=True)
class EscalationResult:
    """Outcome of an escalation campaign for one benchmark."""

    benchmark: str
    observations: ObservationSet
    p_values: tuple[float, ...]

    @property
    def significant(self) -> bool:
        """Whether the last round passed the t-test."""
        return self.p_values[-1] <= ALPHA

    @property
    def samples_used(self) -> int:
        """Layouts in the campaign (all rounds' data is kept)."""
        return len(self.observations)

    @property
    def rounds(self) -> int:
        """How many sampling rounds were run."""
        return len(self.p_values)
