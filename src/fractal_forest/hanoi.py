"""Weighted and unweighted tree/forest recursions on the hanoi graphs.

The five weighted recursions mix the bundle components with the raw edge
weights a, b, c, so an evaluated bundle carries its weight triple along.
The component meanings match the two directional-style gasket models:
U isolates the top corner (1^n), R the right corner (2^n), L the left
corner (0^n).
"""

from __future__ import annotations

import mpmath

from .algebra import LOG_DPS, Weights
from .sierpinski import (
    CountsTriple,
    FiveBundle,
    _abc,
    _exact_div,
    check_level,
    five_initial,
    iterate,
)


def hanoi_step(bundle: FiveBundle) -> FiveBundle:
    check_level(bundle.level + 1, bundle.weights)
    a, b, c = _abc(bundle.weights)
    e = a * b + a * c + b * c
    abc = a * b * c
    T, U, R, L, Q = bundle.T, bundle.U, bundle.R, bundle.L, bundle.Q
    T2, T3 = T**2, T**3
    new_T = T3 * e + 2 * abc * T2 * (U + R + L)
    new_U = (
        b * T3
        + T2 * (e * U + 2 * b * (a * R + c * L))
        + abc * T * (3 * R * L + U * (L + R + 2 * U))
        + abc * T2 * Q
    )
    new_R = (
        a * T3
        + T2 * (e * R + 2 * a * (b * U + c * L))
        + abc * T * (3 * U * L + R * (L + U + 2 * R))
        + abc * T2 * Q
    )
    new_L = (
        c * T3
        + T2 * (e * L + 2 * c * (a * R + b * U))
        + abc * T * (3 * R * U + L * (U + R + 2 * L))
        + abc * T2 * Q
    )
    new_Q = (
        4 * abc * T * Q * (U + R + L)
        + T2 * ((2 * b + a + c) * U + (2 * a + b + c) * R + (2 * c + a + b) * L)
        + T2 * Q * e
        + T3
        + 2 * abc * (U**2 * (R + L) + R**2 * (U + L) + L**2 * (U + R) + U * R * L)
        + 2
        * T
        * (
            U * R * (a * c + b * c + 2 * a * b)
            + U * L * (a * b + a * c + 2 * b * c)
            + R * L * (a * b + b * c + 2 * a * c)
            + b * U**2 * (a + c)
            + a * R**2 * (b + c)
            + c * L**2 * (a + b)
        )
    )
    return FiveBundle(bundle.level + 1, new_T, new_U, new_R, new_L, new_Q, bundle.weights)


def hanoi_bundle(n: int, w: Weights | None = None) -> FiveBundle:
    return iterate(hanoi_step, five_initial(w), n)


def hanoi_counts_recursive(n: int) -> CountsTriple:
    """Iterate the unweighted recursion from (3, 1, 1)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    tau, s, q = 3, 1, 1
    for _ in range(n - 1):
        tau, s, q = (
            3 * tau**3 + 6 * tau**2 * s,
            tau**3 + 7 * tau**2 * s + 7 * tau * s**2 + tau**2 * q,
            3 * tau**2 * q
            + 12 * tau * s * q
            + 14 * s**3
            + 12 * tau**2 * s
            + tau**3
            + 36 * tau * s**2,
        )
    return CountsTriple(tau, s, q)


def hanoi_counts_closed(n: int) -> CountsTriple:
    if n < 1:
        raise ValueError("level must be >= 1")
    half = _exact_div(5**n - 3**n, 2)
    tau = 3 ** _exact_div(3**n + 2 * n - 1, 4) * 5 ** _exact_div(3**n - 2 * n - 1, 4)
    s = (
        3 ** _exact_div(3**n - 2 * n - 1, 4)
        * 5 ** _exact_div(3**n - 2 * n - 1, 4)
        * half
    )
    q = (
        3 ** _exact_div(3**n - 6 * n + 3, 4)
        * 5 ** _exact_div(3**n - 2 * n - 1, 4)
        * half**2
    )
    return CountsTriple(tau, s, q)


def hanoi_growth() -> float:
    """Asymptotic growth constant of the hanoi tree counts."""
    with mpmath.workdps(LOG_DPS):
        return float((mpmath.log(3) + mpmath.log(5)) / 4)
