"""Sample-size escalation (§6.3).

"We sample a number of code reorderings in multiples of 100 until the
benchmark is able to reject the null hypothesis, or until by inspection
we determine that the benchmark is unlikely to reject the null
hypothesis with a much larger number of samples.  ...  We do not
discard any data: we use the data from each reordering."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import ObservationSet
from repro.errors import ConfigurationError
from repro.workloads.suite import Benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store import CampaignStore


def _resume_campaign(
    interferometer: Interferometer,
    benchmark: Benchmark,
    store: "CampaignStore | None",
    max_samples: int,
) -> tuple[ObservationSet, Callable[[ObservationSet], None] | None]:
    """The cached campaign prefix (if any) and its incremental sink.

    With a store, escalation resumes from whatever was already measured
    and persists every newly appended layout as soon as it completes;
    without one, it starts empty and keeps nothing.
    """
    observations = ObservationSet(benchmark=benchmark.name)
    if store is None:
        return observations, None
    from repro.store import CampaignKey

    key = CampaignKey.for_interferometer(interferometer, benchmark.name)
    stored = store.load(key)
    if stored is not None:
        observations.extend(stored.observations[:max_samples])
        store.stats.record_hit(len(observations))
    return observations, store.sink(key)


@dataclass(frozen=True)
class EscalationResult:
    """Outcome of an escalation campaign for one benchmark."""

    benchmark: str
    observations: ObservationSet
    significant: bool
    samples_used: int
    p_values: tuple[float, ...]

    @property
    def rounds(self) -> int:
        """How many sampling rounds were run."""
        return len(self.p_values)


class SampleEscalation:
    """Adds layouts in fixed batches until the t-test passes.

    Parameters
    ----------
    interferometer:
        The measurement driver.
    batch:
        Layouts added per round (100 in the paper).
    max_samples:
        Give-up threshold (300 in the paper: "a few require 300").
    alpha:
        Significance level.
    store:
        Optional campaign store: escalation resumes from the cached
        campaign and persists every appended layout incrementally.
    """

    def __init__(
        self,
        interferometer: Interferometer,
        batch: int = 100,
        max_samples: int = 300,
        alpha: float = 0.05,
        x_metric: str = "mpki",
        y_metric: str = "cpi",
        store: "CampaignStore | None" = None,
    ) -> None:
        if batch <= 0 or max_samples < batch:
            raise ConfigurationError(
                f"need 0 < batch <= max_samples, got batch={batch}, max={max_samples}"
            )
        self.interferometer = interferometer
        self.batch = batch
        self.max_samples = max_samples
        self.alpha = alpha
        self.x_metric = x_metric
        self.y_metric = y_metric
        self.store = store

    def _test_round(self, observations: ObservationSet) -> tuple[float, bool]:
        model = PerformanceModel.from_observations(
            observations, x_metric=self.x_metric, y_metric=self.y_metric
        )
        test = model.significance()
        return test.p_value, test.rejects_null(self.alpha)

    def run(self, benchmark: Benchmark) -> EscalationResult:
        """Escalate sampling for one benchmark; keep all data."""
        observations, sink = _resume_campaign(
            self.interferometer, benchmark, self.store, self.max_samples
        )
        p_values: list[float] = []
        significant = False
        if len(observations) >= 3:
            # Cached prefix: test it before measuring anything new.
            p_value, significant = self._test_round(observations)
            p_values.append(p_value)
        while not significant and len(observations) < self.max_samples:
            n_more = min(self.batch, self.max_samples - len(observations))
            self.interferometer.extend(benchmark, observations, n_more, sink=sink)
            p_value, significant = self._test_round(observations)
            p_values.append(p_value)
        return EscalationResult(
            benchmark=benchmark.name,
            observations=observations,
            significant=significant,
            samples_used=len(observations),
            p_values=tuple(p_values),
        )


@dataclass(frozen=True)
class PrecisionResult:
    """Outcome of a precision-targeted campaign."""

    benchmark: str
    observations: ObservationSet
    achieved: bool
    samples_used: int
    half_widths: tuple[float, ...]


class PrecisionEscalation:
    """Sample until the perfect-prediction PI is tight enough.

    A natural extension of §6.3: instead of stopping at bare statistical
    significance, stop when the quantity the study actually reports —
    the 95% prediction interval of CPI at 0 MPKI (Table 1's Low/High) —
    reaches a target relative half-width.
    """

    def __init__(
        self,
        interferometer: Interferometer,
        batch: int = 50,
        max_samples: int = 400,
        target_percent_half_width: float = 3.0,
        x0: float = 0.0,
        store: "CampaignStore | None" = None,
    ) -> None:
        if batch <= 0 or max_samples < batch:
            raise ConfigurationError(
                f"need 0 < batch <= max_samples, got batch={batch}, max={max_samples}"
            )
        if target_percent_half_width <= 0.0:
            raise ConfigurationError(
                f"target half-width must be positive, got {target_percent_half_width}"
            )
        self.interferometer = interferometer
        self.batch = batch
        self.max_samples = max_samples
        self.target_percent_half_width = target_percent_half_width
        self.x0 = x0
        self.store = store

    def _half_width_round(self, observations: ObservationSet) -> float:
        model = PerformanceModel.from_observations(observations)
        prediction = model.predict(self.x0)
        return prediction.prediction.percent_half_width

    def run(self, benchmark: Benchmark) -> PrecisionResult:
        """Sample until the PI at ``x0`` is tight enough, or give up."""
        observations, sink = _resume_campaign(
            self.interferometer, benchmark, self.store, self.max_samples
        )
        half_widths: list[float] = []
        achieved = False
        if len(observations) >= 3:
            percent = self._half_width_round(observations)
            half_widths.append(percent)
            achieved = percent <= self.target_percent_half_width
        while not achieved and len(observations) < self.max_samples:
            n_more = min(self.batch, self.max_samples - len(observations))
            self.interferometer.extend(benchmark, observations, n_more, sink=sink)
            percent = self._half_width_round(observations)
            half_widths.append(percent)
            if percent <= self.target_percent_half_width:
                achieved = True
        return PrecisionResult(
            benchmark=benchmark.name,
            observations=observations,
            achieved=achieved,
            samples_used=len(observations),
            half_widths=tuple(half_widths),
        )
