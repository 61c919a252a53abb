"""Program interferometry — the paper's core technique (§4).

The workflow mirrors the paper's measurement pipeline:

1. :class:`~repro.core.interferometer.Interferometer` builds N
   reordered executables of a benchmark (seeded, reproducible), runs
   each on the machine with the median-of-five counter protocol, and
   returns an :class:`~repro.core.observations.ObservationSet`.
2. :class:`~repro.core.model.PerformanceModel` fits a least-squares
   line (e.g. CPI on MPKI), reports significance, and predicts CPI at
   hypothetical event rates with confidence/prediction intervals.
3. :class:`~repro.core.blame.BlameAnalysis` attributes CPI variance to
   individual events via r², and fits the combined multilinear model.
4. :mod:`~repro.core.escalation` holds the §6.3 t-test that
   :meth:`~repro.harness.lab.Laboratory.escalate` applies after each
   round of 100 more layouts, as ordinary campaigns.
5. :class:`~repro.core.evaluate.PredictorEvaluator` combines the
   regression models with Pin-style simulation of candidate predictors
   to predict the CPI each predictor would achieve (Figs. 7-8).
"""

from repro.core.blame import BlameAnalysis, BlameReport
from repro.core.cache_exp import CacheInterferometryResult, run_cache_interferometry
from repro.core.escalation import EscalationResult
from repro.core.evaluate import PredictorEvaluation, PredictorEvaluator
from repro.core.interferometer import Interferometer, layout_seed
from repro.core.latency import (
    AdjustedOutcome,
    latency_adjusted_ranking,
    storage_latency_model,
)
from repro.core.park import observe_suite
from repro.core.model import PerformanceModel, PredictionResult
from repro.core.observations import Observation, ObservationSet
from repro.core.supervise import (
    CircuitBreaker,
    ShutdownHandler,
    run_with_deadline,
)

__all__ = [
    "AdjustedOutcome",
    "BlameAnalysis",
    "BlameReport",
    "CacheInterferometryResult",
    "CircuitBreaker",
    "EscalationResult",
    "Interferometer",
    "ShutdownHandler",
    "Observation",
    "ObservationSet",
    "PerformanceModel",
    "PredictionResult",
    "PredictorEvaluation",
    "PredictorEvaluator",
    "latency_adjusted_ranking",
    "layout_seed",
    "observe_suite",
    "run_cache_interferometry",
    "run_with_deadline",
    "storage_latency_model",
]
