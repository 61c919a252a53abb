"""Figure 8 — predicted CPI of real and simulated predictors (§7.2).

Per benchmark: the real predictor's measured mean CPI with its 95%
confidence interval, and each candidate predictor's CPI predicted by
the interferometry regression model, with 95% prediction intervals —
including perfect prediction (0 MPKI).  Also prints the paper's §7.2.1
and §7.2.2 headline aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.evaluate import PredictorEvaluation
from repro.harness.fig7 import PREDICTOR_ORDER
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv


@dataclass(frozen=True)
class Fig8Result:
    """Per-benchmark CPI predictions for every predictor."""

    evaluations: tuple[PredictorEvaluation, ...]

    def _aggregate(self, selector) -> tuple[float, float]:
        """(mean value, mean half-width) over benchmarks."""
        values = [selector(e)[0] for e in self.evaluations]
        halves = [selector(e)[1] for e in self.evaluations]
        return float(np.mean(values)), float(np.mean(halves))

    @property
    def real_cpi(self) -> tuple[float, float]:
        """Suite-average real CPI and CI half-width (paper: 1.387 +/- 0.012)."""
        return self._aggregate(
            lambda e: (e.real_mean_cpi, e.real_cpi_confidence.half_width)
        )

    @property
    def perfect_cpi(self) -> tuple[float, float]:
        """Suite-average perfect-prediction CPI and PI half-width
        (paper: 1.223 +/- 0.061)."""
        return self._aggregate(
            lambda e: (
                e.model.perfect_event_prediction().mean,
                e.model.perfect_event_prediction().prediction.half_width,
            )
        )

    def predictor_cpi(self, name: str) -> tuple[float, float]:
        """Suite-average predicted CPI and PI half-width for a predictor."""
        return self._aggregate(
            lambda e: (
                e.by_predictor[name].predicted_cpi.mean,
                e.by_predictor[name].predicted_cpi.prediction.half_width,
            )
        )

    @property
    def perfect_improvement_percent(self) -> float:
        """Average % improvement from real to perfect (paper: 11.8%)."""
        real, _ = self.real_cpi
        perfect, _ = self.perfect_cpi
        return (real - perfect) / real * 100.0

    @property
    def ltage_improvement_percent(self) -> float:
        """Average % improvement from real to L-TAGE (paper: 4.8%)."""
        real, _ = self.real_cpi
        ltage, _ = self.predictor_cpi("L-TAGE")
        return (real - ltage) / real * 100.0

    def render(self) -> str:
        rows = []
        for e in self.evaluations:
            perfect = e.model.perfect_event_prediction()
            cells = [
                e.benchmark,
                f"{e.real_mean_cpi:.3f}±{e.real_cpi_confidence.half_width:.3f}",
            ]
            for name in PREDICTOR_ORDER:
                outcome = e.by_predictor[name]
                cells.append(
                    f"{outcome.predicted_cpi.mean:.3f}"
                    f"±{outcome.predicted_cpi.prediction.half_width:.3f}"
                )
            cells.append(f"{perfect.mean:.3f}±{perfect.prediction.half_width:.3f}")
            rows.append(tuple(cells))
        table = format_table(
            headers=["benchmark", "real (CI)"]
            + [f"{p} (PI)" for p in PREDICTOR_ORDER]
            + ["perfect (PI)"],
            rows=rows,
            title="Figure 8: predicted CPI of real and simulated branch predictors",
        )
        real, real_half = self.real_cpi
        perfect, perfect_half = self.perfect_cpi
        ltage, ltage_half = self.predictor_cpi("L-TAGE")
        return (
            f"{table}\n"
            f"suite real CPI: {real:.3f}±{real_half:.3f} (paper: 1.387±0.012)\n"
            f"suite perfect CPI: {perfect:.3f}±{perfect_half:.3f} (paper: 1.223±0.061); "
            f"improvement {self.perfect_improvement_percent:.1f}% (paper: 11.8%)\n"
            f"suite L-TAGE CPI: {ltage:.3f}±{ltage_half:.3f} (paper: 1.320±0.03); "
            f"improvement {self.ltage_improvement_percent:.1f}% (paper: 4.8%)"
        )


def run(lab: Laboratory) -> Fig8Result:
    """Regenerate Figure 8's data."""
    evaluations = tuple(lab.evaluation(name) for name in lab.significant_benchmarks())
    return Fig8Result(evaluations=evaluations)


def export(result: Fig8Result, directory: Path) -> list[Path]:
    """Every predictor's CPI per benchmark with its interval (real: CI)."""
    rows = []
    for evaluation in result.evaluations:
        ci = evaluation.real_cpi_confidence
        rows.append(
            (evaluation.benchmark, "real", evaluation.real_mean_cpi, ci.low, ci.high)
        )
        for name in PREDICTOR_ORDER:
            predicted = evaluation.by_predictor[name].predicted_cpi
            pi = predicted.prediction
            rows.append((evaluation.benchmark, name, predicted.mean, pi.low, pi.high))
        perfect = evaluation.model.perfect_event_prediction()
        rows.append(
            (
                evaluation.benchmark, "perfect", perfect.mean,
                perfect.prediction.low, perfect.prediction.high,
            )
        )
    return [
        write_csv(
            directory / "fig8_cpi.csv", ["benchmark", "predictor", "cpi", "low", "high"], rows
        )
    ]
