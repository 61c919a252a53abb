"""§4.6 / §6.4 — significance screening of the full suite.

"For the 23 SPEC CPU 2006 benchmarks that compiled in our
infrastructure, estimating CPI with MPKI, the null hypothesis was
rejected at p = 0.05 or less for 20 benchmarks."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.escalation import ALPHA, p_value
from repro.errors import ModelError
from repro.harness.lab import Laboratory
from repro.harness.report import format_table


@dataclass(frozen=True)
class SignificanceRow:
    """One benchmark's screening outcome."""

    benchmark: str
    r: float
    p_value: float
    significant: bool
    expected_significant: bool


@dataclass(frozen=True)
class SignificanceResult:
    """The full screen."""

    rows: tuple[SignificanceRow, ...]

    @property
    def n_significant(self) -> int:
        """How many benchmarks reject the null hypothesis."""
        return sum(1 for row in self.rows if row.significant)

    @property
    def matches_expectation(self) -> int:
        """How many outcomes match the personality's expectation."""
        return sum(1 for row in self.rows if row.significant == row.expected_significant)

    def render(self) -> str:
        table = format_table(
            headers=["benchmark", "r", "p", "significant", "expected"],
            rows=[
                (
                    row.benchmark,
                    round(row.r, 3),
                    f"{row.p_value:.2e}",
                    row.significant,
                    row.expected_significant,
                )
                for row in self.rows
            ],
            title="Significance screen: H0 = 'no correlation between CPI and MPKI'",
        )
        return (
            f"{table}\n"
            f"{self.n_significant} of {len(self.rows)} benchmarks reject the null "
            f"hypothesis at p <= {ALPHA} (paper: 20 of 23); "
            f"{self.matches_expectation}/{len(self.rows)} match expectation"
        )


def run(lab: Laboratory) -> SignificanceResult:
    """Run the significance screen over the full suite.

    A benchmark is significant by the predicate
    :meth:`~repro.harness.lab.Laboratory.significant_benchmarks` uses:
    :func:`~repro.core.escalation.p_value` at most
    :data:`~repro.core.escalation.ALPHA`.
    """
    rows = []
    for name, benchmark in lab.suite.items():
        p = p_value(partial(lab.model, name))
        try:
            r = lab.model(name).r
        except ModelError:
            # Zero-variance regressor: the line cannot be fit, so the
            # benchmark is screened out (its p-value reads 1).
            r = 0.0
        rows.append(
            SignificanceRow(
                benchmark=name,
                r=r,
                p_value=p,
                significant=p <= ALPHA,
                expected_significant=benchmark.expected_significant,
            )
        )
    return SignificanceResult(rows=tuple(rows))
