"""Figure 4 — percent error of regression estimates under MASE (§3).

Per benchmark, sorted lowest to highest: the percent error of the
0-MPKI regression extrapolation vs actual perfect prediction, and the
(much smaller) error estimating L-TAGE's CPI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv
from repro.mase.linearity import LinearityStudy, LinearityStudyResult


@dataclass(frozen=True)
class Fig4Result:
    """The study outcome plus rendering."""

    study: LinearityStudyResult

    def render(self) -> str:
        rows = [
            (
                b.benchmark,
                b.perfect_cpi,
                b.perfect_estimate,
                b.perfect_error_percent,
                b.ltage_error_percent,
            )
            for b in self.study.sorted_by_perfect_error()
        ]
        table = format_table(
            headers=["benchmark", "perfect CPI", "estimated", "perfect err %", "L-TAGE err %"],
            rows=rows,
            title="Figure 4: % error estimating perfect / L-TAGE CPI by regression",
        )
        return (
            f"{table}\n"
            f"mean perfect-prediction error: {self.study.mean_perfect_error:.2f}% "
            f"(paper: 1.32%)\n"
            f"mean L-TAGE error: {self.study.mean_ltage_error:.2f}% (paper: <0.3%)"
        )


def run(lab: Laboratory) -> Fig4Result:
    """Regenerate Figure 4's data."""
    study = LinearityStudy(
        trace_events=lab.scale.mase_trace_events, n_configs=lab.scale.mase_configs
    )
    return Fig4Result(study=study.run(list(lab.mase_suite.values())))


def export(result: Fig4Result, directory: Path) -> list[Path]:
    """Linearity-study errors, lowest to highest."""
    return [
        write_csv(
            directory / "fig4_errors.csv",
            ["benchmark", "perfect_cpi", "perfect_estimate", "perfect_error_pct",
             "ltage_error_pct"],
            [
                (b.benchmark, b.perfect_cpi, b.perfect_estimate,
                 b.perfect_error_percent, b.ltage_error_percent)
                for b in result.study.sorted_by_perfect_error()
            ],
        )
    ]
