"""Table 1 — per-benchmark regression models (§6.6).

Slope (CPI cost of one additional MPKI), y-intercept (predicted CPI at
perfect prediction), and the low/high 95% prediction interval at 0
MPKI, for every benchmark that passed the significance screen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro import units
from repro.errors import UnknownBenchmarkError
from repro.harness.lab import Laboratory
from repro.harness.report import format_table, write_csv


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's model parameters."""

    benchmark: str
    #: CPI cost of one additional MPKI (a compound CPI-per-MPKI rate).
    slope: float
    intercept: units.Cpi
    low: units.Cpi
    high: units.Cpi
    r_squared: float
    p_value: float


@dataclass(frozen=True)
class Table1Result:
    """The full table."""

    rows: tuple[Table1Row, ...]

    def row_for(self, name: str) -> Table1Row:
        """Look up one benchmark's row."""
        for row in self.rows:
            if row.benchmark == name:
                return row
        raise UnknownBenchmarkError(f"no Table 1 row for benchmark {name!r}")

    def render(self) -> str:
        return format_table(
            headers=["benchmark", "slope", "y-intercept", "low", "high", "r^2", "p"],
            rows=[
                (
                    r.benchmark,
                    round(r.slope, 4),
                    round(r.intercept, 3),
                    round(r.low, 3),
                    round(r.high, 3),
                    round(r.r_squared, 3),
                    f"{r.p_value:.1e}",
                )
                for r in self.rows
            ],
            title=(
                "Table 1: least-squares model relating branch prediction to "
                "performance (95% PI at 0 MPKI)"
            ),
        )


def run(lab: Laboratory) -> Table1Result:
    """Regenerate Table 1."""
    rows = []
    for name in lab.significant_benchmarks():
        model = lab.model(name)
        prediction = model.perfect_event_prediction()
        rows.append(
            Table1Row(
                benchmark=name,
                slope=model.slope,
                intercept=model.intercept,
                low=prediction.prediction.low,
                high=prediction.prediction.high,
                r_squared=model.r_squared,
                p_value=model.significance().p_value,
            )
        )
    return Table1Result(rows=tuple(rows))


def export(result: Table1Result, directory: Path) -> list[Path]:
    """Table 1 rows."""
    return [
        write_csv(
            directory / "table1.csv",
            ["benchmark", "slope", "intercept", "low", "high", "r_squared", "p_value"],
            [
                (r.benchmark, r.slope, r.intercept, r.low, r.high, r.r_squared, r.p_value)
                for r in result.rows
            ],
        )
    ]
