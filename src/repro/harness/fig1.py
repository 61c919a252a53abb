"""Figure 1 — violin plots of CPI variation under code reordering.

The paper plots, per benchmark, the probability density of the percent
difference from average CPI over 100 random reorderings.  We print the
per-benchmark distribution summary and the KDE profile a violin plot
renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv
from repro.stats.descriptive import ViolinProfile, violin_profile


@dataclass(frozen=True)
class Fig1Row:
    """One benchmark's violin."""

    benchmark: str
    n: int
    mean_cpi: float
    min_pct: float
    max_pct: float
    std_pct: float
    profile: ViolinProfile


@dataclass(frozen=True)
class Fig1Result:
    """All 23 violins."""

    rows: tuple[Fig1Row, ...]

    def narrowest(self, count: int) -> list[str]:
        """The *count* benchmarks with the narrowest violins, narrowest first."""
        return [r.benchmark for r in sorted(self.rows, key=lambda r: r.std_pct)[:count]]

    def render(self) -> str:
        """The table a violin plot would be drawn from."""
        table = format_table(
            headers=["benchmark", "n", "mean CPI", "min %", "max %", "std %"],
            rows=[
                (r.benchmark, r.n, r.mean_cpi, r.min_pct, r.max_pct, r.std_pct)
                for r in self.rows
            ],
            title="Figure 1: % CPI variation across code reorderings",
        )
        most = max(self.rows, key=lambda r: r.std_pct)
        least = min(self.rows, key=lambda r: r.std_pct)
        return (
            f"{table}\n"
            f"most layout-sensitive: {most.benchmark} (std {most.std_pct:.2f}%); "
            f"least: {least.benchmark} (std {least.std_pct:.2f}%)"
        )


def run(lab: Laboratory) -> Fig1Result:
    """Regenerate Figure 1's data."""
    rows = []
    for name in lab.suite:
        observations = lab.observations(name)
        cpis = observations.cpis
        profile = violin_profile(cpis)
        rows.append(
            Fig1Row(
                benchmark=name,
                n=len(observations),
                mean_cpi=float(cpis.mean()),
                min_pct=profile.summary.minimum,
                max_pct=profile.summary.maximum,
                std_pct=profile.summary.std,
                profile=profile,
            )
        )
    return Fig1Result(rows=tuple(rows))


def export(result: Fig1Result, directory: Path) -> list[Path]:
    """Violin KDE profiles, long format."""
    rows = [
        (row.benchmark, float(grid_value), float(density))
        for row in result.rows
        for grid_value, density in zip(row.profile.grid, row.profile.density)
    ]
    return [
        write_csv(
            directory / "fig1_violins.csv",
            ["benchmark", "percent_deviation", "density"],
            rows,
        )
    ]
