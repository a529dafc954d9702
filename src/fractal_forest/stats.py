"""Label statistics of a uniform random spanning tree.

The mean and variance of the number of edges of one label in a uniform
random spanning tree are log-derivatives of the tree generating function
T along that label at all-ones:

    mean     = (log T)'
    variance = (log T)'' + (log T)'.

Both come from jets (``algebra.Jet``): T at the weight 1 + e on the
label and 1 elsewhere is ``c0 + c1 e + c2 e^2`` with c0 = T, c1 = T' and
c2 = T''/2, so (log T)' = c1/c0 and (log T)'' = 2 c2/c0 - (c1/c0)^2.
For T = C * prod b_i^(e_i) the log-derivatives add up over the factors
with weights e_i, and the constant C drops out.  A family with a
weighted closed form takes its factors from the closed form's T built
over jets, whose bases are cheap at any level; hanoi runs its bundle
recursion over jets, one pass, as far as an evaluated bundle goes
(``Family.stat_powers``).  The rotational statistics also exist in
closed form; both routes are exposed and must agree exactly.  The normalized count of the rotational model is
asymptotically standard normal; its moment generating function comes
from the same closed form rot_closed(n).T, is evaluated in log space
(exponents grow like 3^n) and is compared against exp(t^2/2) on a grid.
That comparison is the only real-number work here: it runs in mpmath,
which the functions that do it import when they run, so the exact
statistics never load it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import LOG_DPS, VARS, Jet, Weights
from .families import lookup
from .sierpinski import rot_closed


LabelStat = namedtuple("LabelStat", "n label mean variance")


def label_moments(model: str, n: int, label: str) -> tuple[Fraction, Fraction]:
    """Mean and variance of the number of label-edges in a random
    spanning tree, exactly, from the jets of T along the label."""
    if label not in VARS:
        raise ValueError(f"unknown label {label!r}")
    w = Weights(**{v: Jet(1, int(v == label)) for v in VARS})
    first = second = Fraction(0)
    for value, exp in lookup(model).stat_powers(n, w):
        c0, c1, c2 = value.coefficients()
        slope = Fraction(c1, c0)
        first += exp * slope
        second += exp * (Fraction(2 * c2, c0) - slope * slope)
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
    Each base of T is read once as an integer polynomial in the label's
    weight, the other two weights at 1, and evaluated at e^s by Horner
    (``mpmath.polyval``).
    Build and call it at LOG_DPS."""
    import mpmath

    stat = label_stat_closed(n, label)
    mean = mpmath.mpf(stat.mean.numerator) / stat.mean.denominator
    sigma = mpmath.sqrt(mpmath.mpf(stat.variance.numerator) / stat.variance.denominator)
    factors = []
    for base, e in rot_closed(n).T.factors:
        coeffs = _along(base, label)
        factors.append((coeffs, e, mpmath.log(sum(coeffs))))

    def log_mgf(t):
        s = t / sigma
        x = mpmath.exp(s)
        return -mean * s + sum(e * (mpmath.log(mpmath.polyval(coeffs, x)) - log1)
                               for coeffs, e, log1 in factors)

    return log_mgf


def _along(base, label: str) -> list[int]:
    """The coefficients of a TriPoly with the weights other than the
    label's at 1, as a polynomial in the label's weight, highest first."""
    idx = VARS.index(label)
    coeffs = [0] * (max(e[idx] for e in base.terms) + 1)
    for e, c in base.terms.items():
        coeffs[-1 - e[idx]] += c
    return coeffs


def _mpf(t) -> mpmath.mpf:
    """An MGF argument (Fraction, int or mpf) as an mpf at the working
    precision."""
    import mpmath

    if isinstance(t, Fraction):
        return mpmath.mpf(t.numerator) / t.denominator
    return mpmath.mpf(t)


DEFAULT_GRID = tuple(Fraction(k, 2) for k in range(-4, 5))


def normality_gap(n: int, t_grid=DEFAULT_GRID, label: str = "c") -> float:
    """Max distance between the normalized MGF and exp(t^2/2) on a grid."""
    import mpmath

    with mpmath.workdps(LOG_DPS):
        log_mgf = _log_mgf(n, label)
        gap = mpmath.mpf(0)
        for t in t_grid:
            t = _mpf(t)
            gap = max(gap, abs(mpmath.exp(log_mgf(t)) - mpmath.exp(t * t / 2)))
        return float(gap)
