"""Figure 2 — MPKI vs CPI with regression line, CI, and PI bands.

For 400.perlbench and 471.omnetpp: the scatter of (MPKI, CPI) points
over reorderings, the least-squares line, and the 95% confidence and
prediction bands evaluated over the observed MPKI range and at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.model import PerformanceModel
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv
from repro.workloads.params import FIGURE2_BENCHMARKS


@dataclass(frozen=True)
class Fig2Panel:
    """One benchmark's panel."""

    benchmark: str
    model: PerformanceModel
    grid: np.ndarray
    line: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    pi_low: np.ndarray
    pi_high: np.ndarray

    def render(self) -> str:
        """The regression summary plus band series."""
        pred = self.model.perfect_event_prediction()
        head = (
            f"{self.benchmark}: CPI = {self.model.slope:.5f} * MPKI + "
            f"{self.model.intercept:.5f}   (r = {self.model.r:.3f}, "
            f"r^2 = {self.model.r_squared:.3f}, n = {self.model.fit.n})\n"
            f"  perfect prediction (MPKI=0): CPI {pred.mean:.3f}, "
            f"95% PI [{pred.prediction.low:.3f}, {pred.prediction.high:.3f}]"
        )
        table = format_table(
            headers=["MPKI", "line", "ci_low", "ci_high", "pi_low", "pi_high"],
            rows=list(
                zip(self.grid, self.line, self.ci_low, self.ci_high, self.pi_low, self.pi_high)
            ),
        )
        return f"{head}\n{table}"


@dataclass(frozen=True)
class Fig2Result:
    """Both panels."""

    panels: tuple[Fig2Panel, ...]

    def render(self) -> str:
        body = "\n\n".join(panel.render() for panel in self.panels)
        return f"Figure 2: performance vs branch prediction accuracy\n{body}"


#: Band points a panel prints; the exported CSV band is finer.
RENDER_POINTS = 7
EXPORT_POINTS = 40


def _grid(model: PerformanceModel, points: int) -> np.ndarray:
    """*points* MPKI values from 0 to just past the largest observed."""
    return np.linspace(0.0, float(model.x_values.max()) * 1.05, points)


def run(lab: Laboratory) -> Fig2Result:
    """Regenerate Figure 2's data."""
    panels = []
    for name in FIGURE2_BENCHMARKS:
        model = lab.model(name)
        grid = _grid(model, RENDER_POINTS)
        line, ci_low, ci_high, pi_low, pi_high = model.band(grid)
        panels.append(
            Fig2Panel(
                benchmark=name,
                model=model,
                grid=grid,
                line=line,
                ci_low=ci_low,
                ci_high=ci_high,
                pi_low=pi_low,
                pi_high=pi_high,
            )
        )
    return Fig2Result(panels=tuple(panels))


def export(result: Fig2Result, directory: Path) -> list[Path]:
    """Scatter points and a 40-point regression band, one file pair per panel."""
    paths = []
    for panel in result.panels:
        slug = panel.benchmark.replace(".", "_")
        grid = _grid(panel.model, EXPORT_POINTS)
        paths.append(
            write_csv(
                directory / f"fig2_{slug}_points.csv",
                ["mpki", "cpi"],
                zip(panel.model.x_values, panel.model.y_values),
            )
        )
        paths.append(
            write_csv(
                directory / f"fig2_{slug}_band.csv",
                ["mpki", "line", "ci_low", "ci_high", "pi_low", "pi_high"],
                zip(grid, *panel.model.band(grid)),
            )
        )
    return paths
