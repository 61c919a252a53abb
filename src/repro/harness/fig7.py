"""Figure 7 — MPKI of the real and simulated branch predictors (§7.2).

Per benchmark (those that passed the significance screen): the real
predictor's measured MPKI and the Pin-simulated MPKI of the GAs budget
sweep and L-TAGE, averaged over the same reorderings used for the
counter measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.evaluate import PredictorEvaluation
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv

#: Predictor column order for Figures 7 and 8.
PREDICTOR_ORDER = ("GAs-2KB", "GAs-4KB", "GAs-8KB", "GAs-16KB", "L-TAGE")


@dataclass(frozen=True)
class Fig7Result:
    """Per-benchmark MPKI for every predictor."""

    evaluations: tuple[PredictorEvaluation, ...]

    def average_mpki(self, predictor: str) -> float:
        """Mean MPKI of one predictor over all benchmarks."""
        if predictor == "real":
            return float(np.mean([e.real_mean_mpki for e in self.evaluations]))
        return float(
            np.mean([e.by_predictor[predictor].mean_mpki for e in self.evaluations])
        )

    def render(self) -> str:
        rows = []
        for evaluation in self.evaluations:
            rows.append(
                (evaluation.benchmark, evaluation.real_mean_mpki)
                + tuple(
                    evaluation.by_predictor[name].mean_mpki for name in PREDICTOR_ORDER
                )
            )
        rows.append(
            ("AVERAGE", self.average_mpki("real"))
            + tuple(self.average_mpki(name) for name in PREDICTOR_ORDER)
        )
        table = format_table(
            headers=["benchmark", "real"] + list(PREDICTOR_ORDER),
            rows=rows,
            title="Figure 7: MPKI of real and simulated branch predictors",
            precision=2,
        )
        real = self.average_mpki("real")
        ltage = self.average_mpki("L-TAGE")
        return (
            f"{table}\n"
            f"real {real:.2f} vs GAs-8KB {self.average_mpki('GAs-8KB'):.2f} "
            f"vs GAs-16KB {self.average_mpki('GAs-16KB'):.2f} "
            f"(paper: 6.306 / 5.729 / 5.542)\n"
            f"L-TAGE improves on real by {(real - ltage) / real * 100:.0f}% "
            f"(paper: 37%)"
        )


def run(lab: Laboratory) -> Fig7Result:
    """Regenerate Figure 7's data."""
    evaluations = tuple(
        lab.evaluation(name) for name in lab.significant_benchmarks()
    )
    return Fig7Result(evaluations=evaluations)


def export(result: Fig7Result, directory: Path) -> list[Path]:
    """Every predictor's MPKI per benchmark, long format."""
    rows = []
    for evaluation in result.evaluations:
        rows.append((evaluation.benchmark, "real", evaluation.real_mean_mpki))
        for name in PREDICTOR_ORDER:
            rows.append(
                (evaluation.benchmark, name, evaluation.by_predictor[name].mean_mpki)
            )
        rows.append((evaluation.benchmark, "perfect", 0.0))
    return [write_csv(directory / "fig7_mpki.csv", ["benchmark", "predictor", "mpki"], rows)]
