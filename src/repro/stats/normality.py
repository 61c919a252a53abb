"""Normality diagnostics (§5.8 item 4).

"Student's t-test gives a meaningful result in the presence of normally
distributed data.  The observed CPI of most of the benchmarks roughly
follow a normal distribution, thus in most cases hypothesis testing can
give us additional confidence."  This module makes that "roughly
follow" checkable: the Jarque-Bera test (skewness/kurtosis based).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class NormalityResult:
    """Jarque-Bera test outcome."""

    statistic: float
    p_value: float
    skewness: float
    excess_kurtosis: float
    n: int

    def looks_normal(self, alpha: float = 0.05) -> bool:
        """True when normality is NOT rejected at level *alpha*."""
        if not 0.0 < alpha < 1.0:
            raise ModelError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value > alpha


def jarque_bera(values: Sequence[float]) -> NormalityResult:
    """Jarque-Bera normality test.

    JB = n/6 · (S² + K²/4) where S is sample skewness and K excess
    kurtosis; JB is asymptotically chi-squared with 2 degrees of
    freedom under normality.  Small samples make the test permissive —
    appropriate here, since the paper only needs "roughly normal".
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 8:
        raise ModelError("need a 1-D sample with at least 8 observations")
    if not np.all(np.isfinite(arr)):
        raise ModelError("sample contains NaN or infinity")
    n = arr.size
    centered = arr - arr.mean()
    variance = float(np.mean(centered**2))
    if variance == 0.0:
        raise ModelError("sample has zero variance; normality undefined")
    skewness = float(np.mean(centered**3)) / variance**1.5
    kurtosis = float(np.mean(centered**4)) / variance**2 - 3.0
    statistic = n / 6.0 * (skewness**2 + kurtosis**2 / 4.0)
    # The chi-squared survival function with 2 degrees of freedom is exactly exp(-x/2).
    p_value = math.exp(-statistic / 2.0)
    return NormalityResult(
        statistic=statistic,
        p_value=p_value,
        skewness=skewness,
        excess_kurtosis=kurtosis,
        n=n,
    )
