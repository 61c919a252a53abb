"""Confidence and prediction intervals for regression lines (§5.8 item 5).

Following the paper (after Mendenhall et al.): a 95% *confidence*
interval has a 95% chance of containing the true regression line at a
given x; the wider 95% *prediction* interval has a 95% chance of
containing a future *observation* at that x.  Table 1's "Low/High"
columns are the prediction interval evaluated at MPKI = 0 (perfect
branch prediction).

Unit contract: every interval bound is denominated in the fit's
*response* unit (CPI for the paper's models — see :mod:`repro.units`),
and the ``x0`` arguments carry the regressor unit (MPKI); evaluating an
interval at a CPI-valued x0 is a swapped-axes error (STAT001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.stats.distributions import t_quantile
from repro.stats.regression import MultipleLinearFit, SimpleLinearFit


@dataclass(frozen=True)
class Interval:
    """A symmetric interval around a point estimate."""

    center: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval (inclusive)."""
        return self.low <= value <= self.high

    @property
    def percent_half_width(self) -> float:
        """Half-width as a percentage of the center (0 if center is 0)."""
        if self.center == 0.0:
            return 0.0
        return self.half_width / abs(self.center) * 100.0


def critical_t(confidence: float, dof: int) -> float:
    """Two-sided Student's t critical value: the (1 + confidence)/2 quantile."""
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0, 1), got {confidence}")
    if dof <= 0:
        raise ModelError(f"need positive degrees of freedom, got {dof}")
    return t_quantile(0.5 + confidence / 2.0, dof)


def confidence_interval_mean_response(
    fit: SimpleLinearFit, x0: float, confidence: float = 0.95
) -> Interval:
    """CI for the mean response (the regression line itself) at *x0*.

    half-width = t* · s · sqrt(1/n + (x0 − x̄)²/Sxx)
    """
    t_star = critical_t(confidence, fit.degrees_of_freedom)
    s = math.sqrt(fit.residual_variance)
    leverage = 1.0 / fit.n + (x0 - fit.x_mean) ** 2 / fit.sxx
    half = t_star * s * math.sqrt(leverage)
    center = fit.predict(x0)
    return Interval(center=center, low=center - half, high=center + half, confidence=confidence)


def prediction_interval_new_response(
    fit: SimpleLinearFit, x0: float, confidence: float = 0.95
) -> Interval:
    """PI for a single new observation at *x0*.

    half-width = t* · s · sqrt(1 + 1/n + (x0 − x̄)²/Sxx)
    """
    t_star = critical_t(confidence, fit.degrees_of_freedom)
    s = math.sqrt(fit.residual_variance)
    leverage = 1.0 + 1.0 / fit.n + (x0 - fit.x_mean) ** 2 / fit.sxx
    half = t_star * s * math.sqrt(leverage)
    center = fit.predict(x0)
    return Interval(center=center, low=center - half, high=center + half, confidence=confidence)


def interval_band(
    fit: SimpleLinearFit,
    xs: Sequence[float],
    confidence: float = 0.95,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Regression line plus CI and PI bands over a grid of x values.

    Returns ``(line, ci_low, ci_high, pi_low, pi_high)`` arrays — the
    five series the paper's Figure 2 plots.
    """
    xs_arr = np.asarray(xs, dtype=np.float64)
    t_star = critical_t(confidence, fit.degrees_of_freedom)
    s = math.sqrt(fit.residual_variance)
    leverage = 1.0 / fit.n + (xs_arr - fit.x_mean) ** 2 / fit.sxx
    line = fit.predict_many(xs_arr)
    ci_half = t_star * s * np.sqrt(leverage)
    pi_half = t_star * s * np.sqrt(1.0 + leverage)
    return line, line - ci_half, line + ci_half, line - pi_half, line + pi_half


def multiple_confidence_interval(
    fit: MultipleLinearFit, x0: Sequence[float], confidence: float = 0.95
) -> Interval:
    """CI for the mean response of a multiple regression at vector *x0*."""
    row = np.concatenate(([1.0], np.asarray(x0, dtype=np.float64)))
    if row.size != fit.k + 1:
        raise ModelError(f"expected {fit.k} regressors, got {row.size - 1}")
    t_star = critical_t(confidence, fit.degrees_of_freedom)
    s = math.sqrt(fit.residual_variance)
    leverage = float(row @ fit.xtx_inv @ row)
    half = t_star * s * math.sqrt(max(leverage, 0.0))
    center = fit.predict(np.asarray(x0, dtype=np.float64))
    return Interval(center=center, low=center - half, high=center + half, confidence=confidence)


def multiple_prediction_interval(
    fit: MultipleLinearFit, x0: Sequence[float], confidence: float = 0.95
) -> Interval:
    """PI for a single new observation of a multiple regression at *x0*."""
    row = np.concatenate(([1.0], np.asarray(x0, dtype=np.float64)))
    if row.size != fit.k + 1:
        raise ModelError(f"expected {fit.k} regressors, got {row.size - 1}")
    t_star = critical_t(confidence, fit.degrees_of_freedom)
    s = math.sqrt(fit.residual_variance)
    leverage = float(row @ fit.xtx_inv @ row)
    half = t_star * s * math.sqrt(1.0 + max(leverage, 0.0))
    center = fit.predict(np.asarray(x0, dtype=np.float64))
    return Interval(center=center, low=center - half, high=center + half, confidence=confidence)
