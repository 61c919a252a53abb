"""Figure 3 — cache performance models under heap randomization.

For 454.calculix with DieHard heap randomization combined with code
reordering: CPI regressed on L1 (data) and L2 cache misses per 1000
instructions, with CI/PI bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.model import PerformanceModel
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv
from repro.workloads.params import CACHE_STUDY_BENCHMARK


@dataclass(frozen=True)
class Fig3Panel:
    """One cache level's regression panel."""

    benchmark: str
    level: str
    model: PerformanceModel

    def render(self) -> str:
        test = self.model.significance()
        grid = np.linspace(
            float(self.model.x_values.min()), float(self.model.x_values.max()), 5
        )
        line, ci_low, ci_high, pi_low, pi_high = self.model.band(grid)
        head = (
            f"({self.level}) CPI = {self.model.slope:.5f} * {self.model.x_metric} + "
            f"{self.model.intercept:.5f}   (r^2 = {self.model.r_squared:.3f}, "
            f"p = {test.p_value:.2e}, significant = {test.rejects_null()})"
        )
        table = format_table(
            headers=[self.model.x_metric, "line", "ci_low", "ci_high", "pi_low", "pi_high"],
            rows=list(zip(grid, line, ci_low, ci_high, pi_low, pi_high)),
        )
        return f"{head}\n{table}"


@dataclass(frozen=True)
class Fig3Result:
    """Both panels for the cache-study benchmark."""

    benchmark: str
    l1_panel: Fig3Panel
    l2_panel: Fig3Panel

    def render(self) -> str:
        return (
            f"Figure 3: cache effects on performance for {self.benchmark} "
            f"(heap randomization + code reordering)\n"
            f"{self.l1_panel.render()}\n\n{self.l2_panel.render()}"
        )


def run(lab: Laboratory) -> Fig3Result:
    """Regenerate Figure 3's data."""
    observations = lab.heap_observations(CACHE_STUDY_BENCHMARK)
    l1_model = PerformanceModel.from_observations(observations, x_metric="l1d_mpki")
    l2_model = PerformanceModel.from_observations(observations, x_metric="l2_mpki")
    return Fig3Result(
        benchmark=CACHE_STUDY_BENCHMARK,
        l1_panel=Fig3Panel(CACHE_STUDY_BENCHMARK, "a: L1 data cache", l1_model),
        l2_panel=Fig3Panel(CACHE_STUDY_BENCHMARK, "b: L2 cache", l2_model),
    )


def export(result: Fig3Result, directory: Path) -> list[Path]:
    """Cache-model scatter, both levels, long format."""
    rows = [
        (level, float(x), float(y))
        for level, panel in (("L1D", result.l1_panel), ("L2", result.l2_panel))
        for x, y in zip(panel.model.x_values, panel.model.y_values)
    ]
    return [
        write_csv(directory / "fig3_cache_points.csv", ["level", "miss_mpki", "cpi"], rows)
    ]
