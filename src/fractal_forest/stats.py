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
asymptotically standard normal; its moment generating function is
evaluated in log space (exponents grow like 3^n) and compared against
exp(t^2/2) on a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .algebra import LOG_DPS, FactoredPoly, Weights
from .families import lookup


@dataclass(frozen=True)
class LabelStat:
    n: int
    label: str
    mean: Fraction
    variance: Fraction


def _log_derivs(T: FactoredPoly, label: str):
    """(first, second) derivative of log T along one label, at all-ones."""
    w = Weights.ones()
    first = Fraction(0)
    second = Fraction(0)
    for base, exp in T.factors:
        v = base.evaluate(w)
        d1 = base.derivative(label).evaluate(w)
        d2 = base.derivative(label).derivative(label).evaluate(w)
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


def mgf_normalized(n: int, t, label: str = "c") -> mpmath.mpf:
    """MGF of the normalized label count, evaluated in log space."""
    if n < 1:
        raise ValueError("level must be >= 1")
    with mpmath.workdps(LOG_DPS):
        t = mpmath.mpf(t)
        p = 3**n
        if label == "c":
            spread = mpmath.sqrt(mpmath.mpf(34 * p - 2))  # 15 * sigma
            v = 15 * t / spread
            loggf = (
                -(13 * p + 1) * t / (2 * spread)
                + Fraction(p - 3, 6) * (mpmath.log(2 + 3 * mpmath.exp(v)) - mpmath.log(5))
                + Fraction(p + 1, 2) * (mpmath.log(1 + 2 * mpmath.exp(v)) - mpmath.log(3))
            )
        elif label in ("a", "b"):
            sigma = mpmath.sqrt(mpmath.mpf(199 * p + 28)) / 30
            mu = Fraction(16 * p + 7, 30)
            x = mpmath.exp(t / sigma)
            loggf = (
                -mpmath.mpf(mu.numerator) / mu.denominator * t / sigma
                + 3 ** (n - 1) * (mpmath.log(x + 1) - mpmath.log(2))
                + Fraction(3 ** (n - 1) - 1, 2)
                * (mpmath.log(x + 4) - mpmath.log(5))
                + Fraction(p + 1, 2) * (mpmath.log(2 * x + 1) - mpmath.log(3))
            )
        else:
            raise ValueError(f"unknown label {label!r}")
        return +mpmath.exp(loggf)


DEFAULT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))


def normality_gap(n: int, t_grid=DEFAULT_GRID, label: str = "c") -> float:
    """Max distance between the normalized MGF and exp(t^2/2) on a grid."""
    with mpmath.workdps(LOG_DPS):
        gap = mpmath.mpf(0)
        for t in t_grid:
            t = mpmath.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else mpmath.mpf(t)
            gap = max(gap, abs(mgf_normalized(n, t, label) - mpmath.exp(t * t / 2)))
        return float(gap)
