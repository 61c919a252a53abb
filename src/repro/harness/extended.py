"""Extended predictor study — beyond the paper's Figure 7/8 set.

The paper evaluates GAs budgets and L-TAGE; this harness applies the
same methodology to the rest of the predictor zoo this repository
implements — tournament (Alpha 21264), perceptron, and the
anti-aliasing organizations (agree, bi-mode, gskew) — answering two
questions per design:

* what MPKI would it achieve on these executables, and hence what CPI
  does the interferometry model predict;
* how much *layout sensitivity* (MPKI std across reorderings) does it
  exhibit — i.e. how much of the paper's measurement signal would
  survive if this design shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import units
from repro.core.evaluate import PredictorEvaluator
from repro.core.model import PerformanceModel
from repro.harness.lab import Laboratory
from repro.harness.report import format_table
from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.base import BranchPredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.gskew import GskewPredictor
from repro.uarch.predictors.perceptron import PerceptronPredictor
from repro.uarch.predictors.tage import TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor

#: Benchmarks used for the extended study (kept small: the perceptron
#: and TAGE are the slowest simulations in the repository).
STUDY_BENCHMARKS = ("400.perlbench", "445.gobmk", "462.libquantum")


def study_predictors() -> list[BranchPredictor]:
    """The extension zoo, at budgets comparable to the reference hybrid."""
    return [
        TournamentPredictor(),
        PerceptronPredictor(entries=1024, history_bits=12, name="perceptron"),
        AgreePredictor(entries=4096, history_bits=8, name="agree"),
        BiModePredictor(entries=4096, history_bits=8, name="bimode"),
        GskewPredictor(entries_per_bank=2048, history_bits=8, name="gskew"),
        TagePredictor(name="TAGE"),
    ]


@dataclass(frozen=True)
class ExtendedRow:
    """One (benchmark, predictor) cell of the study."""

    benchmark: str
    predictor: str
    mean_mpki: units.Mpki
    mpki_std: float
    predicted_cpi: units.Cpi
    pi_low: units.Cpi
    pi_high: units.Cpi


@dataclass(frozen=True)
class ExtendedResult:
    """The full extended study."""

    rows: tuple[ExtendedRow, ...]
    real_mpki: dict[str, float]
    real_mpki_std: dict[str, float]

    def rows_for(self, benchmark: str) -> list[ExtendedRow]:
        """All predictor rows of one benchmark, sorted by MPKI."""
        return sorted(
            (row for row in self.rows if row.benchmark == benchmark),
            key=lambda row: row.mean_mpki,
        )

    def sensitivity_ranking(self, benchmark: str) -> list[tuple[str, float]]:
        """(predictor, MPKI std) sorted most to least layout-sensitive."""
        ranked = [
            (row.predictor, row.mpki_std)
            for row in self.rows
            if row.benchmark == benchmark
        ]
        ranked.append(("real (hybrid)", self.real_mpki_std[benchmark]))
        return sorted(ranked, key=lambda pair: -pair[1])

    def render(self) -> str:
        blocks = []
        for benchmark in sorted({row.benchmark for row in self.rows}):
            table = format_table(
                headers=["predictor", "MPKI", "MPKI std", "pred. CPI", "PI low", "PI high"],
                rows=[
                    (row.predictor, round(row.mean_mpki, 2), round(row.mpki_std, 3),
                     round(row.predicted_cpi, 3), round(row.pi_low, 3),
                     round(row.pi_high, 3))
                    for row in self.rows_for(benchmark)
                ],
                title=(
                    f"{benchmark} (real hybrid: {self.real_mpki[benchmark]:.2f} "
                    f"± {self.real_mpki_std[benchmark]:.3f} MPKI)"
                ),
            )
            blocks.append(table)
        return (
            "Extended predictor study (beyond the paper's Fig. 7/8 set)\n"
            + "\n\n".join(blocks)
        )


def run(
    lab: Laboratory,
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    n_layouts: int | None = None,
) -> ExtendedResult:
    """Run the extended study on the laboratory's campaigns."""
    layouts = n_layouts if n_layouts is not None else min(8, lab.scale.n_layouts)
    evaluator = PredictorEvaluator(lab.interferometer, study_predictors())
    rows: list[ExtendedRow] = []
    real_mpki: dict[str, float] = {}
    real_std: dict[str, float] = {}
    for name in benchmarks:
        observations = lab.observations(name)
        model = PerformanceModel.from_observations(observations)
        real_mpki[name] = float(observations.mpkis.mean())
        real_std[name] = float(observations.mpkis.std())
        per_predictor = evaluator.mpkis(
            lab.benchmark(name),
            [obs.layout_index for obs in observations.observations[:layouts]],
        )
        for pred_name, mpkis in per_predictor.items():
            mean_mpki = float(np.mean(mpkis))
            prediction = model.predict(mean_mpki)
            rows.append(
                ExtendedRow(
                    benchmark=name,
                    predictor=pred_name,
                    mean_mpki=mean_mpki,
                    mpki_std=float(np.std(mpkis)),
                    predicted_cpi=prediction.mean,
                    pi_low=prediction.prediction.low,
                    pi_high=prediction.prediction.high,
                )
            )
    return ExtendedResult(
        rows=tuple(rows), real_mpki=real_mpki, real_mpki_std=real_std
    )
