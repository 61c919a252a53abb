"""Statistical toolkit used by program interferometry (paper §5.8).

All estimators — descriptive statistics, Pearson correlation, simple and
multiple least-squares regression, confidence/prediction intervals,
Student's t-test, and the F-test — are implemented in this package,
and so are the distribution tails they need: :mod:`repro.stats.distributions`
computes the t and F tails and the t quantile with the standard library
alone.  Nothing here imports scipy.
"""

from repro.stats.correlation import (
    coefficient_of_determination,
    pearson_r,
)
from repro.stats.descriptive import (
    DescriptiveSummary,
    gaussian_kde_density,
    mean,
    median,
    percent_deviation_from_mean,
    percentile,
    std,
    summarize,
    variance,
    violin_profile,
)
from repro.stats.hypothesis_tests import (
    FTestResult,
    TTestResult,
    f_test_regression,
    t_test_correlation,
    t_test_slope,
)
from repro.stats.descriptive import ViolinProfile
from repro.stats.intervals import (
    Interval,
    confidence_interval_mean_response,
    interval_band,
    multiple_confidence_interval,
    multiple_prediction_interval,
    prediction_interval_new_response,
)
from repro.stats.normality import NormalityResult, jarque_bera
from repro.stats.regression import (
    MultipleLinearFit,
    SimpleLinearFit,
    fit_multiple,
    fit_simple,
)

__all__ = [
    "DescriptiveSummary",
    "FTestResult",
    "Interval",
    "MultipleLinearFit",
    "NormalityResult",
    "SimpleLinearFit",
    "TTestResult",
    "ViolinProfile",
    "coefficient_of_determination",
    "confidence_interval_mean_response",
    "f_test_regression",
    "fit_multiple",
    "fit_simple",
    "gaussian_kde_density",
    "interval_band",
    "jarque_bera",
    "mean",
    "median",
    "multiple_confidence_interval",
    "multiple_prediction_interval",
    "pearson_r",
    "percent_deviation_from_mean",
    "percentile",
    "prediction_interval_new_response",
    "std",
    "summarize",
    "t_test_correlation",
    "t_test_slope",
    "variance",
    "violin_profile",
]
