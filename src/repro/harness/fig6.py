"""Figure 6 — cumulative r² blame assignment (§6.1).

Per benchmark: r² of CPI against branch mispredictions, L1I misses, and
L2 misses, plus the combined three-event multilinear model's r².  The
combined bar falls short of the stacked sum because the events are not
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.blame import BlameAnalysis, BlameReport
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv


@dataclass(frozen=True)
class Fig6Result:
    """Blame reports for the full suite."""

    reports: tuple[BlameReport, ...]

    @property
    def mean_branch_r2(self) -> float:
        """Average share of CPI variance explained by branch mispredictions."""
        return float(
            np.mean([r.per_event["mpki"].r_squared for r in self.reports])
        )

    def render(self) -> str:
        rows = []
        for report in self.reports:
            events = report.per_event
            rows.append(
                (
                    report.benchmark,
                    events["mpki"].r_squared,
                    events["l1i_mpki"].r_squared,
                    events["l2_mpki"].r_squared,
                    report.sum_of_parts,
                    report.combined_r_squared,
                    report.combined_significant,
                )
            )
        mean_row = (
            "AVERAGE",
            float(np.mean([r.per_event["mpki"].r_squared for r in self.reports])),
            float(np.mean([r.per_event["l1i_mpki"].r_squared for r in self.reports])),
            float(np.mean([r.per_event["l2_mpki"].r_squared for r in self.reports])),
            float(np.mean([r.sum_of_parts for r in self.reports])),
            float(np.mean([r.combined_r_squared for r in self.reports])),
            "",
        )
        table = format_table(
            headers=["benchmark", "r2 branch", "r2 L1I", "r2 L2", "sum", "combined", "F-sig"],
            rows=rows + [mean_row],
            title="Figure 6: cumulative r^2 per event + combined model",
        )
        best = max(self.reports, key=lambda r: r.per_event["mpki"].r_squared)
        return (
            f"{table}\n"
            f"mean branch r^2: {self.mean_branch_r2:.3f} (paper: 0.27); "
            f"most branch-dominated: {best.benchmark} "
            f"(r^2 = {best.per_event['mpki'].r_squared:.3f}; paper: 462.libquantum 0.842)"
        )


def run(lab: Laboratory) -> Fig6Result:
    """Regenerate Figure 6's data."""
    analysis = BlameAnalysis()
    reports = tuple(analysis.analyze(lab.observations(name)) for name in lab.suite)
    return Fig6Result(reports=reports)


def export(result: Fig6Result, directory: Path) -> list[Path]:
    """Per-benchmark r² decomposition."""
    rows = [
        (
            report.benchmark,
            report.per_event["mpki"].r_squared,
            report.per_event["l1i_mpki"].r_squared,
            report.per_event["l2_mpki"].r_squared,
            report.combined_r_squared,
        )
        for report in result.reports
    ]
    return [
        write_csv(
            directory / "fig6_blame.csv",
            ["benchmark", "r2_branch", "r2_l1i", "r2_l2", "r2_combined"],
            rows,
        )
    ]
