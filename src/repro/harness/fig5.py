"""Figure 5 — MPKI vs normalized CPI regression lines under MASE.

Panel (a): three highly linear benchmarks (473.astar, 401.bzip2,
458.sjeng analogues); panel (b): the three least linear (456.hmmer,
252.eon, 178.galgel).  CPI is normalized to perfect prediction, so the
true curve passes through (0, 1) and the regression intercept's
distance from 1 *is* the extrapolation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv
from repro.mase.linearity import BenchmarkLinearity, LinearityStudyResult
from repro.stats.regression import fit_simple
from repro.workloads.params import FIGURE5_LINEAR, FIGURE5_NONLINEAR


@dataclass(frozen=True)
class Fig5Line:
    """One benchmark's normalized regression line."""

    benchmark: str
    slope: float
    intercept: float
    error_at_zero_percent: float
    #: The (MPKI, normalized CPI) points the line is fit to.
    mpkis: np.ndarray
    normalized_cpis: np.ndarray


@dataclass(frozen=True)
class Fig5Result:
    """Both panels."""

    linear: tuple[Fig5Line, ...]
    nonlinear: tuple[Fig5Line, ...]

    def render(self) -> str:
        def table(lines: tuple[Fig5Line, ...], label: str) -> str:
            return format_table(
                headers=["benchmark", "slope", "intercept", "err@0 %", "n", "MPKI range"],
                rows=[
                    (
                        l.benchmark,
                        l.slope,
                        l.intercept,
                        l.error_at_zero_percent,
                        l.mpkis.size,
                        f"{l.mpkis.min():.1f}..{l.mpkis.max():.1f}",
                    )
                    for l in lines
                ],
                title=label,
                precision=4,
            )

        return (
            "Figure 5: normalized CPI vs MPKI regression lines\n"
            + table(self.linear, "(a) highly linear benchmarks")
            + "\n\n"
            + table(self.nonlinear, "(b) less linear benchmarks")
        )


def _line(bench: BenchmarkLinearity) -> Fig5Line:
    mpkis, normalized = bench.normalized_points()
    fit = fit_simple(mpkis, normalized)
    return Fig5Line(
        benchmark=bench.benchmark,
        slope=fit.slope,
        intercept=fit.intercept,
        error_at_zero_percent=abs(fit.intercept - 1.0) * 100.0,
        mpkis=mpkis,
        normalized_cpis=normalized,
    )


def from_study(study: LinearityStudyResult) -> Fig5Result:
    """Both panels' lines, fit to a linearity study's points."""
    return Fig5Result(
        linear=tuple(_line(study.result_for(name)) for name in FIGURE5_LINEAR),
        nonlinear=tuple(_line(study.result_for(name)) for name in FIGURE5_NONLINEAR),
    )


def run(lab: Laboratory) -> Fig5Result:
    """Regenerate Figure 5's data from Figure 4's stored linearity study."""
    # Imported here: the harness package imports this module for its table.
    from repro.harness import result_of

    return from_study(result_of(lab, "fig4").study)


def export(result: Fig5Result, directory: Path) -> list[Path]:
    """Every panel's normalized points, long format."""
    rows = [
        (group, line.benchmark, float(x), float(y))
        for group, lines in (("linear", result.linear), ("nonlinear", result.nonlinear))
        for line in lines
        for x, y in zip(line.mpkis, line.normalized_cpis)
    ]
    return [
        write_csv(
            directory / "fig5_points.csv",
            ["panel", "benchmark", "mpki", "normalized_cpi"],
            rows,
        )
    ]
