"""Weighted and unweighted tree/forest recursions on the hanoi graphs.

The five weighted recursions mix the bundle components with the raw edge
weights a, b, c, which every step reads off the bundle's weights.  The
components match the directional-style gasket models: U isolates the top
corner (1^n), R the right corner (2^n), L the left corner (0^n).  The
unweighted counts (tau, s, q) step as a RotBundle's (T, S, Q), on their
primitive part through ``iterate``, which checks the level cap.  A step
is its map alone: it forms each distinct product of two components once
and stays subtraction-free.
"""

from __future__ import annotations

from .algebra import Weights, power_products
from .sierpinski import (
    SYMBOLS,
    CountsTriple,
    FiveBundle,
    RotBundle,
    _exact_div,
    _five_products,
    five_initial,
    iterate,
)


def hanoi_step(bundle: FiveBundle) -> FiveBundle:
    """One step of the five weighted recursions (e = ab + ac + bc):

        T' = e T^3 + 2abc T^2 (U + R + L)
        U' = b T^3 + T^2 (e U + 2b (a R + c L)) + abc T (3 R L + U (L + R + 2 U)) + abc T^2 Q
        Q' = 4abc T Q (U + R + L) + T^2 ((2b + a + c) U + (2a + b + c) R + (2c + a + b) L)
             + e T^2 Q + T^3 + 2abc (U^2 (R + L) + R^2 (U + L) + L^2 (U + R) + U R L)
             + 2T (U R (ac + bc + 2ab) + U L (ab + ac + 2bc) + R L (ab + bc + 2ac)
                   + b (a + c) U^2 + a (b + c) R^2 + c (a + b) L^2)

    and R', L' as U' under the corner permutations (U, b) -> (R, a) and
    (U, b) -> (L, c).  Every output is T times a sum of the products of T
    with each component and of two corner forests, except the cubic in
    U, R, L of Q'.  That cubic, with the 4abc T Q (U + R + L) term, is abc
    times the gaskets' new Q, so T^2, TQ, the six corner products and
    the cubic are read off ``sierpinski._five_products``; T U, T R and
    T L are formed here.
    """
    a, b, c = bundle.weights
    e = a * b + a * c + b * c
    abc = a * b * c
    T, U, R, L = bundle.T, bundle.U, bundle.R, bundle.L
    TT, TQ, (UU, RR, LL, UR, UL, RL), gasket_Q = _five_products(bundle)
    TU, TR, TL = T * U, T * R, T * L
    abcTQ = abc * TQ
    new_T = T * (e * TT + 2 * abc * (TU + TR + TL))
    new_U = T * (
        b * TT + e * TU + 2 * b * (a * TR + c * TL) + abcTQ
        + abc * (3 * RL + UL + UR + 2 * UU)
    )
    new_R = T * (
        a * TT + e * TR + 2 * a * (b * TU + c * TL) + abcTQ
        + abc * (3 * UL + RL + UR + 2 * RR)
    )
    new_L = T * (
        c * TT + e * TL + 2 * c * (a * TR + b * TU) + abcTQ
        + abc * (3 * UR + UL + RL + 2 * LL)
    )
    new_Q = T * (
        (2 * b + a + c) * TU + (2 * a + b + c) * TR + (2 * c + a + b) * TL
        + e * TQ + TT
        + 2 * (
            UR * (a * c + b * c + 2 * a * b)
            + UL * (a * b + a * c + 2 * b * c)
            + RL * (a * b + b * c + 2 * a * c)
            + b * (a + c) * UU + a * (b + c) * RR + c * (a + b) * LL
        )
    ) + abc * gasket_Q
    return FiveBundle(new_T, new_U, new_R, new_L, new_Q, bundle.weights)


def hanoi_bundle(n: int, w: Weights = SYMBOLS) -> FiveBundle:
    return iterate(hanoi_step, five_initial(w), n)


def _counts_step(bundle: RotBundle) -> RotBundle:
    """T' = 3 T^3 + 6 T^2 S, S' = T^3 + 7 T^2 S + 7 T S^2 + T^2 Q and
    Q' = 3 T^2 Q + 12 T S Q + 14 S^3 + 12 T^2 S + T^3 + 36 T S^2."""
    T, S, Q = bundle.T, bundle.S, bundle.Q
    TT, TS, SS, TQ = T * T, T * S, S * S, T * Q
    new = (T * (3 * TT + 6 * TS), T * (TT + 7 * (TS + SS) + TQ),
           T * (TT + 12 * TS + 36 * SS + 3 * TQ) + S * (12 * TQ + 14 * SS))
    return RotBundle(*new, bundle.weights)


def hanoi_counts_recursive(n: int) -> CountsTriple:
    """Iterate the unweighted recursion from (3, 1, 1) on its primitive part."""
    b = iterate(_counts_step, RotBundle(3, 1, 1, Weights(1, 1, 1)), n)
    return CountsTriple(b.T, b.S, b.Q)


def hanoi_counts_closed(n: int) -> CountsTriple:
    if n < 1:
        raise ValueError("level must be >= 1")
    half = _exact_div(5**n - 3**n, 2)
    five = _exact_div(3**n - 2 * n - 1, 4)
    return CountsTriple(*power_products([3, 5, half], [
        [_exact_div(3**n + 2 * n - 1, 4), five, 0],
        [_exact_div(3**n - 2 * n - 1, 4), five, 1],
        [_exact_div(3**n - 6 * n + 3, 4), five, 2],
    ]))
