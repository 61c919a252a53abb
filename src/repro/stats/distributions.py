"""Student's t and Fisher's F tails from the standard library alone.

Both reduce to one regularized incomplete beta I_x(a, b) at
x = 1/(1 + z): the two-sided t p-value is I_x(dof/2, 1/2) with
z = t²/dof, and the F survival function is I_x(d2/2, d1/2) with
z = d1·F/d2.  I_x is a Lentz continued fraction (DLMF 8.17.22) on
whichever side of the distribution's bulk it converges fast, so the
smaller of I and 1 − I carries full relative precision.  The t quantile
is Newton's method on log t, with the exact forms for 1 and 2 degrees
of freedom.  Every function returns a Python ``float``.
"""

from __future__ import annotations

import functools
import math

_TINY = 1e-300


def _log_beta(a: float, b: float) -> float:
    """log B(a, b); lgamma(a) − lgamma(a + b) by Stirling's series for large a.

    The direct lgamma difference cancels to about 1e-9 relative at
    a = 5e5, which the series difference avoids.
    """
    if a < b:
        a, b = b, a
    if a < 16.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def series(z: float) -> float:  # lgamma(z) − (z − ½)·log z + z − ½·log 2π
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z

    s = a + b
    return (
        math.lgamma(b)
        - (a - 0.5) * math.log1p(b / a) - b * math.log(s) + b
        + series(a) - series(s)
    )


def _continued_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b) (DLMF 8.17.22), for y = 1 − x.

    It is evaluated in its even contraction, whose partial denominators
    are 1 + d(2k+1) + d(2k+2).  Near x = 1 each of these cancels to
    O(1/a).  Written as its value at x = 1, found algebraically, plus
    y times the rest, it keeps full precision; the textbook form loses
    about ε/y, which is 4e-11 relative at dof 1e6.
    """

    def odd(k: int) -> float:  # −d(2k+1)/x
        return (a + k) * (a + b + k) / ((a + 2 * k) * (a + 2 * k + 1))

    def even(k: int) -> float:  # d(2k)/x
        return k * (b - k) / ((a + 2 * k - 1) * (a + 2 * k))

    def denominator(k: int) -> float:  # 1 + d(2k+1) + d(2k+2)
        if x < 0.5:
            return 1.0 + x * (even(k + 1) - odd(k))
        p = a + 2 * k
        at_one = (a * (2 * k + 1 - b) + k * (3 * k + 2 - b)) / (p * (p + 1)) + even(k + 1)
        return at_one + y * (odd(k) - even(k + 1))

    # v = B2 + A3/(B3 + A4/(B4 + ...)) by the modified Lentz method, with
    # A(k+1) = −d(2k)·d(2k+1) and B(k+1) = denominator(k).
    v = c = denominator(1) or _TINY
    d = 0.0
    for k in range(2, 100_000):
        numerator, den = even(k) * odd(k) * x * x, denominator(k)
        d = 1.0 / (den + numerator * d or _TINY)
        c = den + numerator / c or _TINY
        v *= c * d
        if abs(c * d - 1.0) < 2.3e-16:  # within an ulp of 1
            break
    # 1/(1 + d1/(1 + d2 + r)) with r = A2/v, and 1 + d1 + d2 = B1.
    r = even(1) * odd(1) * x * x / v
    return (1.0 + even(1) * x + r) / (denominator(0) + r)


def _beta_tails(a: float, b: float, z: float, log_z: float) -> tuple[float, float, float]:
    """``(I_x(a, b), I_y(b, a), x^a·y^b / B(a, b))`` at x = 1/(1+z), y = z/(1+z).

    The first two sum to 1.  *log_z* is log z, passed separately so that
    an overflowed z (z = inf) still carries its size.
    """
    if z <= 1.0:
        x, y = 1.0 / (1.0 + z), z / (1.0 + z)
        log_x, log_y = -math.log1p(z), log_z - math.log1p(z)
    else:
        w = 1.0 / z
        x, y = w / (1.0 + w), 1.0 / (1.0 + w)
        log_x, log_y = -log_z - math.log1p(w), -math.log1p(w)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    if x * (a + b + 2.0) < a + 1.0:
        upper = front * _continued_fraction(a, b, x, y) / a
        return upper, 1.0 - upper, front
    lower = front * _continued_fraction(b, a, y, x) / b
    return 1.0 - lower, lower, front


def t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| ≥ |t|) for Student's T with *dof* degrees of freedom."""
    t, dof = abs(float(t)), float(dof)
    z = t * t / dof
    if z == 0.0:
        return 1.0
    if t == math.inf:
        return 0.0
    log_z = math.log(z) if z < math.inf else 2.0 * math.log(t) - math.log(dof)
    return _beta_tails(dof / 2.0, 0.5, z, log_z)[0]


def f_sf(f: float, dof_model: int, dof_residual: int) -> float:
    """P(F ≥ f) for Fisher's F with (*dof_model*, *dof_residual*) degrees of freedom."""
    f, dof_model, dof_residual = float(f), float(dof_model), float(dof_residual)
    z = dof_model * f / dof_residual
    if z == 0.0:
        return 1.0
    if f == math.inf:
        return 0.0
    log_z = (
        math.log(z)
        if z < math.inf
        else math.log(dof_model) + math.log(f) - math.log(dof_residual)
    )
    return _beta_tails(dof_residual / 2.0, dof_model / 2.0, z, log_z)[0]


# An `all` run asks for a handful of (q, dof) pairs some 700 times.
@functools.lru_cache(maxsize=256)
def t_quantile(q: float, dof: int) -> float:
    """The *q* quantile of Student's t, for 0.5 ≤ q ≤ 1 (q = 1 gives inf).

    Beyond dof 2 this is Newton's method on log t, from t = 1.  Above
    the upper quartile it solves the two-sided tail P(|T| ≥ t) = 2(1 − q),
    otherwise the central mass P(|T| < t) = 2q − 1: both targets are
    exact in floating point, and the log of each is nearly linear in
    log t at both ends, so a dozen steps suffice from q = ½ to q = 1.
    """
    q, dof = float(q), float(dof)
    tail, central = 2.0 * (1.0 - q), 2.0 * q - 1.0
    if central == 0.0:
        return 0.0
    if tail == 0.0:
        return math.inf
    if dof == 1:  # tan(π(q − ½)), as 1/tan(π(1 − q)) nearer q = 1
        if central < tail:
            return math.tan(math.pi * central / 2.0)
        return 1.0 / math.tan(math.pi * tail / 2.0)
    if dof == 2:  # (2q − 1)/√(2q(1 − q))
        return central / math.sqrt(q * tail)
    a, t, step = dof / 2.0, 1.0, 0.0
    for _ in range(200):
        z = t * t / dof
        upper, lower, front = _beta_tails(a, 0.5, z, math.log(z))
        if min(upper, lower) == 0.0:  # the last step overshot into underflow: halve it
            step /= 2.0
            t /= math.exp(step)
            continue
        # d/d(log t) of P(|T| ≥ t) is −2·front; of P(|T| < t), +2·front.
        if tail < central:
            step = (math.log(upper) - math.log(tail)) * upper / (2.0 * front)
        else:
            step = (math.log(central) - math.log(lower)) * lower / (2.0 * front)
        t *= math.exp(step)
        if abs(step) < 1e-9:
            break
    return t
