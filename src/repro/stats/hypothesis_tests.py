"""Hypothesis testing (§5.8 item 4, §6.2).

The paper formulates the null hypothesis "there is no correlation
between CPI and MPKI" and rejects it with Student's t-test at p ≤ 0.05
for single-variable models.  For the combined three-event model it uses
the F-test instead, "as the t-test is appropriate for single-variable
linear regression models".

These screens are part of the statistical contract enforced by STAT001
in :mod:`repro.lint`: Table-1-style reporting of slopes/intercepts must
run (or consult) one of these tests first, and the tested axes must
carry the units declared in :data:`repro.units.METRIC_UNITS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ModelError
from repro.stats.correlation import pearson_r
from repro.stats.distributions import f_sf, t_two_sided_p
from repro.stats.regression import MultipleLinearFit, SimpleLinearFit


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sided Student's t-test."""

    statistic: float
    dof: int
    p_value: float

    def rejects_null(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level *alpha*."""
        if not 0.0 < alpha < 1.0:
            raise ModelError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value <= alpha


@dataclass(frozen=True)
class FTestResult:
    """Outcome of an overall-regression F-test."""

    statistic: float
    dof_model: int
    dof_residual: int
    p_value: float

    def rejects_null(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis (all slopes zero) is rejected."""
        if not 0.0 < alpha < 1.0:
            raise ModelError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value <= alpha


def t_test_correlation(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Test H0: "x and y are uncorrelated" with Student's t.

    t = r·sqrt(n−2) / sqrt(1−r²) with n−2 degrees of freedom.
    """
    r = pearson_r(x, y)
    n = len(x)
    dof = n - 2
    if dof <= 0:
        raise ModelError("need at least 3 observations for the correlation t-test")
    if abs(r) >= 1.0:
        return TTestResult(statistic=math.inf if r > 0 else -math.inf, dof=dof, p_value=0.0)
    t_stat = r * math.sqrt(dof) / math.sqrt(1.0 - r * r)
    return TTestResult(statistic=t_stat, dof=dof, p_value=t_two_sided_p(t_stat, dof))


def t_test_slope(fit: SimpleLinearFit, null_slope: float = 0.0) -> TTestResult:
    """Test H0: "the regression slope equals *null_slope*".

    For null_slope = 0 this is equivalent to the correlation t-test.
    """
    dof = fit.degrees_of_freedom
    if dof <= 0:
        raise ModelError("need at least 3 observations for the slope t-test")
    stderr = fit.slope_stderr
    if stderr == 0.0:
        return TTestResult(statistic=math.inf, dof=dof, p_value=0.0)
    t_stat = (fit.slope - null_slope) / stderr
    return TTestResult(statistic=t_stat, dof=dof, p_value=t_two_sided_p(t_stat, dof))


def f_test_regression(fit: MultipleLinearFit) -> FTestResult:
    """Overall F-test of a multiple regression.

    H0: every slope coefficient is zero (the model explains nothing).
    F = (SSR/k) / (SSE/(n−k−1)).
    """
    dof_model = fit.k
    dof_residual = fit.degrees_of_freedom
    if dof_residual <= 0:
        raise ModelError("not enough observations for the F-test")
    ssr = fit.total_ss - fit.residual_ss
    if fit.residual_ss <= 0.0:
        return FTestResult(
            statistic=math.inf, dof_model=dof_model, dof_residual=dof_residual, p_value=0.0
        )
    f_stat = (ssr / dof_model) / (fit.residual_ss / dof_residual)
    if f_stat < 0.0:
        f_stat = 0.0
    p = f_sf(f_stat, dof_model, dof_residual)
    return FTestResult(
        statistic=f_stat, dof_model=dof_model, dof_residual=dof_residual, p_value=p
    )
