"""Label statistics of a uniform random spanning tree.

For the gaskets the tree generating function factors into a fixed set
of bases with huge exponents, so exact means and variances of the
per-label edge counts come from log-derivatives of the factored closed
form: for T = C * prod b_i^(e_i),

    mean   = sum_i e_i * b_i'(1) / b_i(1)
    (log T)'' = sum_i e_i * (b_i''(1) b_i(1) - b_i'(1)^2) / b_i(1)^2
    variance = (log T)'' + mean.

The hanoi model has no symbolic closed form; its symbolic T (level 3 at
most) is taken as a single factor.  The same quantities exist in closed
form for the rotational model; both routes are exposed and must agree
exactly.  The normalized count of the rotational model is
asymptotically standard normal; its moment generating function comes
from the same closed form rot_closed(n).T, is evaluated in log space
(exponents grow like 3^n) and is compared against exp(t^2/2) on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .algebra import LOG_DPS, VARS, FactoredPoly, Weights
from .families import ONES, lookup
from .sierpinski import rot_closed


@dataclass(frozen=True)
class LabelStat:
    n: int
    label: str
    mean: Fraction
    variance: Fraction


def _log_derivs(T: FactoredPoly, label: str):
    """(first, second) derivative of log T along one label, at all-ones."""
    first = Fraction(0)
    second = Fraction(0)
    for base, exp in T.factors:
        v = base.evaluate(ONES)
        d1 = base.derivative(label).evaluate(ONES)
        d2 = base.derivative(label).derivative(label).evaluate(ONES)
        first += exp * d1 / v
        second += exp * (d2 * v - d1 * d1) / (v * v)
    return first, second


def label_moments(model: str, n: int, label: str) -> tuple[Fraction, Fraction]:
    """Mean and variance of the number of label-edges in a random
    spanning tree, exactly, from one log-derivative pass."""
    first, second = _log_derivs(lookup(model).stat_tree(n), label)
    return first, second + first


def label_mean_gf(model: str, n: int, label: str) -> Fraction:
    """Mean number of label-edges in a random spanning tree, exactly."""
    return label_moments(model, n, label)[0]


def label_variance_gf(model: str, n: int, label: str) -> Fraction:
    return label_moments(model, n, label)[1]


def label_stat_closed(n: int, label: str) -> LabelStat:
    """Closed-form mean/variance for the rotational model."""
    if n < 1:
        raise ValueError("level must be >= 1")
    p = 3**n
    if label in ("a", "b"):
        mean = Fraction(16 * p + 7, 30)
        var = Fraction(199 * p + 28, 900)
    elif label == "c":
        mean = Fraction(13 * p + 1, 30)
        var = Fraction(34 * p - 2, 225)
    else:
        raise ValueError(f"unknown label {label!r}")
    return LabelStat(n, label, mean, var)


def _log_mgf(n: int, label: str):
    """t -> log of the MGF of the normalized label count (X - mean) / sigma,
    read off the rotational closed form T: E[e^(sX)] is T at e^s on the
    label and 1 elsewhere over T at ones, where T's prime prefactor cancels.
    Build and call it at LOG_DPS."""
    stat = label_stat_closed(n, label)
    mean = mpmath.mpf(stat.mean.numerator) / stat.mean.denominator
    sigma = mpmath.sqrt(mpmath.mpf(stat.variance.numerator) / stat.variance.denominator)
    factors = [(b, e, mpmath.log(b.evaluate(ONES))) for b, e in rot_closed(n).T.factors]

    def log_mgf(t):
        s = t / sigma
        w = Weights(**{v: mpmath.exp(s) if v == label else 1 for v in VARS})
        return -mean * s + sum(e * (mpmath.log(b.evaluate(w)) - log1) for b, e, log1 in factors)

    return log_mgf


def _mpf(t) -> mpmath.mpf:
    """An MGF argument (Fraction, int or mpf) as an mpf at the working
    precision."""
    if isinstance(t, Fraction):
        return mpmath.mpf(t.numerator) / t.denominator
    return mpmath.mpf(t)


def mgf_normalized(n: int, t, label: str = "c") -> mpmath.mpf:
    """MGF of the normalized label count, evaluated in log space; t is a
    Fraction, int or mpf."""
    with mpmath.workdps(LOG_DPS):
        return +mpmath.exp(_log_mgf(n, label)(_mpf(t)))


DEFAULT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))


def normality_gap(n: int, t_grid=DEFAULT_GRID, label: str = "c") -> float:
    """Max distance between the normalized MGF and exp(t^2/2) on a grid."""
    with mpmath.workdps(LOG_DPS):
        log_mgf = _log_mgf(n, label)
        gap = mpmath.mpf(0)
        for t in t_grid:
            t = _mpf(t)
            gap = max(gap, abs(mpmath.exp(log_mgf(t)) - mpmath.exp(t * t / 2)))
        return float(gap)
