"""Predictor evaluation: interferometry models × Pin simulation (§7).

For each benchmark, the regression model (CPI on MPKI) from the
counter measurements is combined with functional simulation of
candidate predictors over *the same* reordered executables.  The mean
simulated MPKI of each predictor is fed into the model to predict the
CPI the machine would achieve with that predictor (Figures 7 and 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import units
from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel, PredictionResult
from repro.core.observations import ObservationSet
from repro.errors import ConfigurationError
from repro.pintool.brsim import PinTool
from repro.stats.intervals import Interval, critical_t
from repro.uarch.predictors.base import BranchPredictor
from repro.workloads.suite import Benchmark


@dataclass(frozen=True)
class PredictorOutcome:
    """One candidate predictor's result on one benchmark."""

    predictor: str
    mean_mpki: units.Mpki
    predicted_cpi: PredictionResult


@dataclass(frozen=True)
class PredictorEvaluation:
    """Figures 7+8 content for one benchmark."""

    benchmark: str
    real_mean_mpki: units.Mpki
    real_mean_cpi: units.Cpi
    real_cpi_confidence: Interval
    outcomes: tuple[PredictorOutcome, ...]
    model: PerformanceModel

    @property
    def by_predictor(self) -> Mapping[str, PredictorOutcome]:
        """Outcomes keyed by predictor name."""
        return {outcome.predictor: outcome for outcome in self.outcomes}

    def predicted_improvement_percent(self, predictor: str) -> float:
        """Percent CPI improvement of a predictor vs the real predictor."""
        outcome = self.by_predictor[predictor]
        if self.real_mean_cpi == 0.0:
            raise ConfigurationError("real CPI is zero")
        return (self.real_mean_cpi - outcome.predicted_cpi.mean) / self.real_mean_cpi * 100.0


def mean_confidence_interval(values: np.ndarray, confidence: float = 0.95) -> Interval:
    """CI of a sample mean (the 'tighter' real-predictor error bars)."""
    n = values.size
    center = float(values.mean())
    if n < 2:
        return Interval(center=center, low=center, high=center, confidence=confidence)
    stderr = float(values.std(ddof=1)) / math.sqrt(n)
    t_star = critical_t(confidence, n - 1)
    half = t_star * stderr
    return Interval(center=center, low=center - half, high=center + half, confidence=confidence)


class PredictorEvaluator:
    """Runs the §7 evaluation for a set of candidate predictors.

    The Pin tool is run on the same layout indices the observation set
    was measured on, with the same warm-up convention the machine's
    counters use, so MPKIs are directly comparable.
    """

    def __init__(
        self,
        interferometer: Interferometer,
        predictors: Sequence[BranchPredictor],
    ) -> None:
        self.interferometer = interferometer
        warmup_fraction = interferometer.machine.config.warmup_fraction
        self.pintool = PinTool(predictors, warmup_fraction=warmup_fraction)

    def evaluate(
        self, benchmark: Benchmark, observations: ObservationSet
    ) -> PredictorEvaluation:
        """Evaluate every candidate predictor on one benchmark."""
        if len(observations) == 0:
            raise ConfigurationError(f"no observations for {benchmark.name}")
        model = PerformanceModel.from_observations(observations)
        per_predictor_mpkis: dict[str, list[float]] = {
            predictor.name: [] for predictor in self.pintool.predictors
        }
        for obs in observations:
            executable = self.interferometer.build_executable(benchmark, obs.layout_index)
            results = self.pintool.run(executable)
            for name, result in results.items():
                per_predictor_mpkis[name].append(result.mpki)
        outcomes = []
        for name, mpkis in per_predictor_mpkis.items():
            mean_mpki = float(np.mean(mpkis))
            outcomes.append(
                PredictorOutcome(
                    predictor=name,
                    mean_mpki=mean_mpki,
                    predicted_cpi=model.predict(mean_mpki),
                )
            )
        cpis = observations.cpis
        return PredictorEvaluation(
            benchmark=benchmark.name,
            real_mean_mpki=float(observations.mpkis.mean()),
            real_mean_cpi=float(cpis.mean()),
            real_cpi_confidence=mean_confidence_interval(cpis),
            outcomes=tuple(outcomes),
            model=model,
        )
