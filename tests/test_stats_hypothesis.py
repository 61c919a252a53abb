"""Tests for t-tests and the F-test."""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.core.evaluate import mean_confidence_interval
from repro.errors import ModelError
from repro.stats.hypothesis_tests import (
    f_test_regression,
    t_test_correlation,
    t_test_slope,
)
from repro.stats.intervals import confidence_interval_mean_response, critical_t
from repro.stats.normality import jarque_bera
from repro.stats.regression import fit_multiple, fit_simple


def _correlated(n=40, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    y = 2.0 * x + rng.normal(0, noise, n)
    return x, y


def _uncorrelated(n=40, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, n), rng.normal(0, 1, n)


class TestCorrelationTTest:
    def test_correlated_rejects_null(self):
        x, y = _correlated()
        assert t_test_correlation(x, y).rejects_null(0.05)

    def test_uncorrelated_fails_to_reject(self):
        x, y = _uncorrelated()
        assert not t_test_correlation(x, y).rejects_null(0.05)

    def test_matches_scipy_pearsonr(self):
        x, y = _correlated(noise=5.0, seed=2)
        ours = t_test_correlation(x, y)
        theirs = scipy_stats.pearsonr(x, y)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)

    def test_perfect_correlation_p_zero(self):
        x = np.arange(10, dtype=float)
        result = t_test_correlation(x, 2.0 * x)
        assert result.p_value == 0.0

    def test_dof(self):
        x, y = _correlated(n=25)
        assert t_test_correlation(x, y).dof == 23

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            t_test_correlation([1.0, 2.0], [1.0, 2.0])

    def test_bad_alpha_rejected(self):
        x, y = _correlated()
        with pytest.raises(ModelError):
            t_test_correlation(x, y).rejects_null(alpha=0.0)


class TestSlopeTTest:
    def test_equivalent_to_correlation_test(self):
        x, y = _correlated(noise=3.0, seed=3)
        corr = t_test_correlation(x, y)
        slope = t_test_slope(fit_simple(x, y))
        assert slope.statistic == pytest.approx(corr.statistic, rel=1e-9)
        assert slope.p_value == pytest.approx(corr.p_value, rel=1e-9)

    def test_null_slope_shifts_statistic(self):
        x, y = _correlated(noise=0.1)
        fit = fit_simple(x, y)
        near_true = t_test_slope(fit, null_slope=2.0)
        far = t_test_slope(fit, null_slope=0.0)
        assert abs(near_true.statistic) < abs(far.statistic)
        assert not near_true.rejects_null(0.05)


class TestFTest:
    def test_strong_model_rejects(self):
        rng = np.random.default_rng(4)
        x1 = rng.uniform(0, 5, 50)
        x2 = rng.uniform(0, 5, 50)
        y = 2.0 * x1 - x2 + rng.normal(0, 0.2, 50)
        result = f_test_regression(fit_multiple([x1, x2], y))
        assert result.rejects_null(0.05)
        assert result.dof_model == 2
        assert result.dof_residual == 47

    def test_noise_model_fails_to_reject(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(0, 1, 40)
        x2 = rng.normal(0, 1, 40)
        y = rng.normal(0, 1, 40)
        result = f_test_regression(fit_multiple([x1, x2], y))
        assert not result.rejects_null(0.05)

    def test_f_matches_r2_identity(self):
        rng = np.random.default_rng(6)
        x1 = rng.uniform(0, 5, 30)
        y = x1 + rng.normal(0, 1.0, 30)
        fit = fit_multiple([x1], y)
        result = f_test_regression(fit)
        r2 = fit.r_squared
        expected = (r2 / 1) / ((1 - r2) / (30 - 2))
        assert result.statistic == pytest.approx(expected)

    def test_single_regressor_f_equals_t_squared(self):
        x, y = _correlated(noise=2.0, seed=7)
        t_result = t_test_correlation(x, y)
        f_result = f_test_regression(fit_multiple([x], y))
        assert f_result.statistic == pytest.approx(t_result.statistic**2, rel=1e-9)
        assert f_result.p_value == pytest.approx(t_result.p_value, rel=1e-6)

    def test_perfect_fit_p_tiny(self):
        x = np.arange(10, dtype=float)
        result = f_test_regression(fit_multiple([x], 3.0 * x + 1.0))
        assert result.p_value < 1e-50


# Degrees of freedom from 1 to 10**6 and statistics at the tails'
# edges: signed zero, subnormal, large and infinite.
EDGE_DOFS = (1, 2, 3, 4, 7, 10, 29, 30, 100, 1_000, 10_000, 100_000, 1_000_000)
EDGE_STATISTICS = (
    0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 1.96, 2.0, 3.5, 10.0,
    40.0, 1e3, 1e8, 1e154, 1e300, math.inf,
)
EDGE_CONFIDENCES = (
    1e-300, 1e-12, 1e-6, 0.01, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999,
    1.0 - 1e-9, 1.0 - 2.0**-53,
)


def _slope_fit(t_stat: float, dof: int) -> SimpleNamespace:
    """A simple-regression stand-in whose slope t statistic is *t_stat*."""
    return SimpleNamespace(degrees_of_freedom=dof, slope=t_stat, slope_stderr=1.0)


def _multiple_fit(f_stat: float, dof_model: int, dof_residual: int) -> SimpleNamespace:
    """A multiple-regression stand-in whose F statistic is about *f_stat*."""
    return SimpleNamespace(
        k=dof_model,
        degrees_of_freedom=dof_residual,
        residual_ss=float(dof_residual),
        total_ss=f_stat * dof_model + dof_residual,
    )


def _assert_close(ours: float, reference: float, dof: int, context: object) -> None:
    """*ours* is a float within the reference bound for *dof* degrees of freedom."""
    assert type(ours) is float, context
    if math.isinf(reference):
        assert ours == reference, (context, ours, reference)
    elif abs(reference) < sys.float_info.min:
        assert abs(ours - reference) < sys.float_info.min, (context, ours, reference)
    else:
        bound = 1e-12 if dof <= 10_000 else 1e-10
        assert abs(ours - reference) <= bound * abs(reference), (context, ours, reference)


def _t_p_reference(statistic: float, dof: int) -> float:
    """Two-sided t p-value: the closed forms at dof 1 and 2, scipy elsewhere."""
    t = abs(float(statistic))
    if t == 0.0:
        return 1.0
    if dof == 1:
        # 1 − (2/π)·atan|t|, written so that it keeps its precision at large |t|.
        return 2.0 / math.pi * math.atan(1.0 / t)
    if dof == 2:
        # 1 − |t|/√(2 + t²), written likewise.
        h = math.hypot(math.sqrt(2.0), t)
        return 2.0 / h / (h + t)
    return 2.0 * float(scipy_stats.t.sf(t, dof))


def _t_quantile_reference(q: float, dof: int) -> float:
    """The t quantile for q ≥ 0.5: tan(π(q − ½)) at dof 1, scipy elsewhere.

    ``scipy.stats.t.ppf`` is inaccurate near q = ½ (at dof 4 it returns
    0.0 for q = 0.5000000000005), so the central half inverts the
    incomplete beta instead.
    """
    tail, central = 2.0 * (1.0 - q), 2.0 * q - 1.0
    if dof == 1:
        # tan(π(q − ½)), as 1/tan(π(1 − q)) when q is nearer 1.
        if central < tail:
            return math.tan(math.pi * central / 2.0)
        return 1.0 / math.tan(math.pi * tail / 2.0) if tail else math.inf
    if tail < central:
        return float(scipy_stats.t.isf(1.0 - q, dof))
    y = float(scipy_special.betaincinv(0.5, dof / 2.0, central))
    return math.sqrt(dof * y / (1.0 - y))


class TestExactlyScipyStats:
    """The t, F and chi-squared tails agree with an independent reference.

    The reference is an exact closed form where one exists (Cauchy at
    dof 1, dof 2, chi-squared with 2 degrees of freedom) and scipy
    elsewhere.  ``_assert_close`` holds the bounds: 1e-12 relative up to
    10 000 degrees of freedom, 1e-10 above, absolute below the smallest
    normal double.  Infinite statistics give exactly 0, zero statistics
    exactly 1, and the quantile at q = 1 is exactly inf.
    """

    def test_slope_p_value_edge_grid(self):
        for dof in EDGE_DOFS:
            for t_stat in EDGE_STATISTICS:
                for signed in (t_stat, -t_stat):
                    result = t_test_slope(_slope_fit(signed, dof))
                    if t_stat == 0.0:
                        assert result.p_value == 1.0
                    elif t_stat == math.inf:
                        assert result.p_value == 0.0
                    reference = _t_p_reference(result.statistic, dof)
                    _assert_close(result.p_value, reference, dof, (dof, signed))

    def test_f_p_value_edge_grid(self):
        for dof_model in (1, 2, 3, 10):
            for dof_residual in EDGE_DOFS:
                for f_stat in EDGE_STATISTICS:
                    result = f_test_regression(_multiple_fit(f_stat, dof_model, dof_residual))
                    if result.statistic == 0.0:
                        assert result.p_value == 1.0
                    elif result.statistic == math.inf:
                        assert result.p_value == 0.0
                    reference = float(
                        scipy_stats.f.sf(result.statistic, dof_model, dof_residual)
                    )
                    _assert_close(
                        result.p_value, reference, dof_residual, (dof_model, dof_residual, f_stat)
                    )

    def test_critical_t_edge_grid(self):
        for dof in EDGE_DOFS:
            for confidence in EDGE_CONFIDENCES:
                q = 0.5 + confidence / 2.0
                ours = critical_t(confidence, dof)
                if q == 1.0:
                    assert ours == math.inf
                _assert_close(ours, _t_quantile_reference(q, dof), dof, (dof, confidence))

    def test_critical_t_rejects_bad_arguments(self):
        for confidence, dof in ((0.0, 10), (1.0, 10), (0.95, 0)):
            with pytest.raises(ModelError):
                critical_t(confidence, dof)

    def test_interval_uses_critical_t(self):
        x, y = _correlated(n=12, noise=1.0, seed=8)
        fit = fit_simple(x, y)
        interval = confidence_interval_mean_response(fit, 3.0)
        t_star = _t_quantile_reference(0.975, fit.degrees_of_freedom)
        leverage = 1.0 / fit.n + (3.0 - fit.x_mean) ** 2 / fit.sxx
        half = t_star * math.sqrt(fit.residual_variance) * math.sqrt(leverage)
        assert abs(interval.high - (fit.predict(3.0) + half)) <= 1e-12 * half

    def test_mean_confidence_interval_matches_scipy(self):
        values = np.random.default_rng(9).normal(1.5, 0.1, 40)
        interval = mean_confidence_interval(values, confidence=0.9)
        stderr = float(values.std(ddof=1)) / math.sqrt(values.size)
        half = _t_quantile_reference(0.95, values.size - 1) * stderr
        assert abs(interval.low - (float(values.mean()) - half)) <= 1e-12 * half
        assert abs(interval.high - (float(values.mean()) + half)) <= 1e-12 * half

    def test_mean_confidence_interval_single_value(self):
        interval = mean_confidence_interval(np.array([2.5]))
        assert interval.low == interval.high == 2.5

    def test_jarque_bera_fixed_samples(self):
        rng = np.random.default_rng(10)
        samples = (
            rng.normal(0.0, 1.0, 200),
            rng.exponential(1.0, 200),
            np.array([-1.0, 1.0] * 8),
            np.array([0.0] * 7 + [1e6]),
        )
        for sample in samples:
            result = jarque_bera(sample)
            reference = math.exp(-result.statistic / 2.0)
            _assert_close(result.p_value, reference, 2, result.statistic)
            # The closed form itself against scipy's chi-squared tail.
            _assert_close(reference, float(scipy_stats.chi2.sf(result.statistic, 2)), 2, None)

    @settings(max_examples=200, deadline=None)
    @given(
        dof=st.integers(min_value=1, max_value=10**6),
        t_stat=st.floats(allow_nan=False),
    )
    def test_slope_p_value_property(self, dof, t_stat):
        result = t_test_slope(_slope_fit(t_stat, dof))
        _assert_close(result.p_value, _t_p_reference(result.statistic, dof), dof, None)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_correlation_p_value_property(self, data):
        x, y = (np.array(column) for column in zip(*data))
        assume(np.ptp(x) > 1e-6 and np.ptp(y) > 1e-6)
        result = t_test_correlation(x, y)
        reference = _t_p_reference(result.statistic, result.dof)
        _assert_close(result.p_value, reference, result.dof, None)

    @settings(max_examples=200, deadline=None)
    @given(
        dof_model=st.integers(min_value=1, max_value=20),
        dof_residual=st.integers(min_value=1, max_value=10**6),
        f_stat=st.floats(min_value=0.0, max_value=1e300),
    )
    def test_f_p_value_property(self, dof_model, dof_residual, f_stat):
        result = f_test_regression(_multiple_fit(f_stat, dof_model, dof_residual))
        reference = float(scipy_stats.f.sf(result.statistic, dof_model, dof_residual))
        _assert_close(result.p_value, reference, dof_residual, None)

    @settings(max_examples=200, deadline=None)
    @given(
        dof=st.integers(min_value=1, max_value=10**6),
        confidence=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_critical_t_property(self, dof, confidence):
        reference = _t_quantile_reference(0.5 + confidence / 2.0, dof)
        _assert_close(critical_t(confidence, dof), reference, dof, None)

    @settings(max_examples=100, deadline=None)
    @given(
        sample=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=8, max_size=60
        )
    )
    def test_jarque_bera_property(self, sample):
        assume(np.ptp(sample) > 1e-3)
        result = jarque_bera(sample)
        _assert_close(result.p_value, math.exp(-result.statistic / 2.0), 2, None)


class TestFloatResults:
    """With numpy inputs, p-values and critical values are Python floats.

    Report cells test ``isinstance(value, bool)``: a numpy p-value would
    make ``rejects_null`` a numpy bool, which renders as ``True`` where
    a Python bool renders as ``yes``.
    """

    def test_numpy_inputs(self):
        x, y = _correlated(n=12, noise=1.0, seed=11)
        results = (
            t_test_correlation(x, y),
            t_test_slope(fit_simple(x, y)),
            f_test_regression(fit_multiple([x], y)),
        )
        for result in results:
            assert type(result.p_value) is float
            assert type(result.rejects_null()) is bool
        assert type(jarque_bera(y).p_value) is float
        for dof in (np.int64(1), np.int64(2), np.int64(10)):
            assert type(critical_t(np.float64(0.95), dof)) is float
