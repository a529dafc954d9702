"""Spanning-tree and corner-forest generating functions on the gaskets.

Three labelling models share the same machinery:

* rotational -- bundle (T, S, Q): trees, 2-forests separating one corner
  (independent of which, by symmetry), 3-forests separating all corners;
  it also carries hanoi's unweighted counts (``hanoi``).
* directional and schreier -- bundle (T, U, R, L, Q) where U, R, L are the
  2-forests isolating the top, right and left corner respectively.

Every step is a polynomial in the bundle components and the weights, so
one code path runs in whatever ring the weights live in, and a bundle
carries its weights.  At ``SYMBOLS``, the variables a, b, c, the
components are TriPolys, capped at low levels because expanded sizes
explode like 3^n; integer weights give ``int`` components, rational ones
``Fraction`` components and jet weights (``algebra.Jet``, for the label
statistics) jet components.  A run is capped when it starts, by the
ring of the weights (``check_level``); a step is its map alone.  Each
step forms each distinct product of two bundle components once and stays
subtraction-free; the tests hold the equations as first transcribed,
term by term, and compare.

Every step is a homogeneous cubic in the components, so an evaluated
integer bundle steps on its primitive part: the primitive run
(``primitive_run``) divides the gcd g_k of the components out after
each step and returns the contents g_0, ..., g_(n-1) with the last
primitive bundle.  The level-n bundle is that bundle times the content
``prod g_k^(3^(n-1-k))``, which is nearly all of its size; ``iterate``
is the primitive run, then that one product of powers (``content``),
then the primitive bundle scaled by it (``scaled``), so the bundle it
returns is exact and in full.  Every recursion runs through
``primitive_run``: the bundles here and in ``hanoi``, hanoi's unweighted
counts, and ``families.Level``, which for ``verify`` also reads the run
unmultiplied, the contents to their powers (``Level.products``).

Closed forms are FactoredPoly products over the ring of the weights
too: their bases are the weights' images under the polynomial maps,
polynomials at ``SYMBOLS`` (which expand and print) and values
elsewhere, found by iterating the maps on values, which is exact and
cheap at any level.  One ``FactoredPoly.values`` multiplies out the
components of a closed form, each base's powers shared between them; it
and the content are products of powers formed by one squaring chain each
(``algebra.power_products``).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import FactoredPoly, TriPoly, Weights, power_products
from .errors import CapabilityError

SYMBOLIC_LEVEL_CAP = 3
EVALUATED_LEVEL_CAP = 12
ITERATE_SYMBOLIC_CAP = 8  # F/G iterates double in degree per step

SYMBOLS = Weights(*TriPoly.variables())  # the weights of symbolic bundles

FIVE = ("T", "U", "R", "L", "Q")  # the components of a FiveBundle


RotBundle = namedtuple("RotBundle", "T S Q weights", defaults=(SYMBOLS,))
FiveBundle = namedtuple("FiveBundle", (*FIVE, "weights"), defaults=(SYMBOLS,))
CountsTriple = namedtuple("CountsTriple", "tau s q")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"exponent {num}/{den} is not an integer")
    return q


def _symbolic(w: Weights) -> bool:
    return any(isinstance(x, TriPoly) for x in w)


def check_level(n: int, w: Weights) -> None:
    """The level cap of a run, by the ring of the weights: symbolic if an
    entry is a TriPoly, else evaluated.  Checked before any work by its four
    callers: ``primitive_run``, ``_evaluated``, ``cli.run_gf`` and ``cli.run_verify``."""
    symbolic = _symbolic(w)
    cap = SYMBOLIC_LEVEL_CAP if symbolic else EVALUATED_LEVEL_CAP
    if n > cap:
        mode = "symbolic" if symbolic else "evaluated"
        raise CapabilityError(f"{mode} bundles are capped at level {cap}")


def _map_components(bundle, f):
    """f of each component; a bundle's last field is its weights."""
    *parts, w = bundle
    return bundle._make((*map(f, parts), w))


def split_content(bundle):
    """(content, primitive part) of a bundle of ``int`` components, the
    content being the gcd of the components.  Any other bundle, and one
    whose components are all 0, is its own primitive part, of content 1."""
    parts = bundle[:-1]
    g = math.gcd(*parts) if all(type(x) is int for x in parts) else 0
    if g <= 1:
        return 1, bundle
    return g, _map_components(bundle, lambda x: x // g)


def primitive_run(step, initial, n: int):
    """The primitive run of a recursion to level n: (contents, primitive
    bundle), the level-n bundle being the primitive bundle times the
    content ``prod g_k^(3^(n-1-k))`` of the contents g_0, ..., g_(n-1).

    Every step is a homogeneous cubic in the bundle's components, so
    ``step(g B) = g^3 step(B)`` for a scalar g.  An evaluated integer
    bundle therefore steps on its primitive part: g_0 is the content of
    the level-1 bundle, and after step k the gcd g_k of the new
    components is divided out.  The components share nearly all of their
    size, so each step multiplies small numbers.  Symbolic and
    ``Fraction`` bundles step as they are, with contents 1.

    The level cap is checked before the first step, so a request past it
    fails before any work is done.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    check_level(n, initial.weights)
    g, bundle = split_content(initial)
    contents = [g]
    for _ in range(n - 1):
        g, bundle = split_content(step(bundle))
        contents.append(g)
    return contents, bundle


def content_exponents(n: int) -> list[int]:
    """The exponents 3^(n-1-k) of the contents g_k of a run to level n."""
    return [3 ** (n - 1 - k) for k in range(n)]


def content(contents):
    """``prod g_k^(3^(n-1-k))``, in one squaring chain (``power_products``)."""
    [scale] = power_products(contents, [content_exponents(len(contents))])
    return scale


def scaled(bundle, scale):
    """The bundle with every component multiplied by scale."""
    return bundle if scale == 1 else _map_components(bundle, lambda x: scale * x)


def iterate(step, initial, n: int):
    """The level-n bundle of a recursion, from its level-1 bundle: its
    primitive run, the contents meeting once, at the end.  The bundle is
    exact and in full."""
    contents, bundle = primitive_run(step, initial, n)
    return scaled(bundle, content(contents))


# -- rotational model -------------------------------------------------------


def rot_initial(w: Weights = SYMBOLS) -> RotBundle:
    a, b, c = w
    e = a * b + a * c + b * c
    s = a + b + 3 * c
    return RotBundle(3 * (a + b) * e**2, (a + b) * s * e, (a + b) * s**2, w)


def rot_step(bundle: RotBundle) -> RotBundle:
    """T' = 6 T^2 S, S' = 7 T S^2 + T^2 Q, Q' = 12 T S Q + 14 S^3."""
    T, S, Q = bundle.T, bundle.S, bundle.Q
    SS, TQ = S * S, T * Q
    return RotBundle(
        6 * (T * T) * S,
        T * (7 * SS + TQ),
        S * (12 * TQ + 14 * SS),
        bundle.weights,
    )


def rot_bundle(n: int, w: Weights = SYMBOLS) -> RotBundle:
    return iterate(rot_step, rot_initial(w), n)


def rot_closed(n: int, w: Weights = SYMBOLS) -> RotBundle:
    """Closed-form factored bundle over the ring of w; exponents are exact
    big integers.  It has no level cap of its own."""
    if n < 1:
        raise ValueError("level must be >= 1")
    a, b, c = w
    p, s, e = a + b, a + b + 3 * c, a * b + a * c + b * c
    pw3 = 3 ** (n - 1)
    e2 = _exact_div(pw3 - 1, 2)
    T = FactoredPoly(
        {2: e2, 3: _exact_div(3**n + 2 * n - 1, 4), 5: _exact_div(pw3 - 2 * n + 1, 4)},
        [(p, pw3), (s, _exact_div(pw3 - 1, 2)), (e, _exact_div(3**n + 1, 2))],
    )
    S = FactoredPoly(
        {2: e2, 3: _exact_div(3**n - 2 * n - 1, 4), 5: _exact_div(pw3 + 2 * n - 3, 4)},
        [(p, pw3), (s, _exact_div(pw3 + 1, 2)), (e, _exact_div(3**n - 1, 2))],
    )
    Q = FactoredPoly(
        {2: e2, 3: _exact_div(3**n - 6 * n + 3, 4), 5: _exact_div(pw3 + 6 * n - 7, 4)},
        [(p, pw3), (s, _exact_div(pw3 + 3, 2)), (e, _exact_div(3**n - 3, 2))],
    )
    return RotBundle(T, S, Q, w)


def rot_counts(n: int) -> CountsTriple:
    """Tree / 2-forest / 3-forest counts from the prime-exponent formulas."""
    if n < 1:
        raise ValueError("level must be >= 1")
    two = _exact_div(3**n - 1, 2)
    return CountsTriple(*power_products([2, 3, 5], [
        [two, _exact_div(3 ** (n + 1) + 2 * n + 1, 4), _exact_div(3**n - 2 * n - 1, 4)],
        [two, _exact_div(3 ** (n + 1) - 2 * n - 3, 4), _exact_div(3**n + 2 * n - 1, 4)],
        [two, _exact_div(3 ** (n + 1) - 6 * n - 3, 4), _exact_div(3**n + 6 * n - 1, 4)],
    ]))


def rot_vertex_count(n: int) -> int:
    return 3 * (3**n + 1) // 2


# -- the two polynomial maps and their iterates ------------------------------


def F_map(x, y, z):
    return (
        3 * x * x + 3 * x * z + 3 * x * y + y * z,
        3 * y * y + 3 * x * y + 3 * y * z + x * z,
        3 * z * z + 3 * x * z + 3 * y * z + x * y,
    )


def G_map(x, y, z):
    return (
        x * x + 2 * y * z + x * y + x * z,
        y * y + 2 * x * z + x * y + y * z,
        z * z + 2 * x * y + x * z + y * z,
    )


def f_of(x, y, z):
    return (
        3 * x * x * y
        + 3 * x * y * y
        + 3 * x * x * z
        + 3 * x * z * z
        + 3 * y * y * z
        + 3 * y * z * z
        + 7 * x * y * z
    )


def _iterates(mapping, w: Weights, times: int) -> list:
    """The weights and their first ``times`` images under the map; at
    symbolic weights, whose images double in degree, at most
    ITERATE_SYMBOLIC_CAP of them."""
    if times > ITERATE_SYMBOLIC_CAP and _symbolic(w):
        raise CapabilityError(f"symbolic map iterates are capped at {ITERATE_SYMBOLIC_CAP}")
    out = [w]
    for _ in range(times):
        out.append(mapping(*out[-1]))
    return out


def _factors(iterates, n: int) -> list:
    """Factors 1..n of a closed form: a*b + a*c + b*c for k = 1, else the
    sum of iterate k - 2."""
    a, b, c = iterates[0]
    return [a * b + a * c + b * c] + [x + y + z for x, y, z in iterates[: n - 1]]


# -- directional and schreier recursions -------------------------------------


def five_initial(w: Weights = SYMBOLS) -> FiveBundle:
    """The level-1 bundle of the directional, schreier and hanoi
    recursions, in the ring of the weights."""
    a, b, c = w
    return FiveBundle(a * b + a * c + b * c, b, a, c, a**0, w)


def _five_products(bundle: FiveBundle):
    """The products of bundle components that the directional and
    schreier steps share: T^2 and TQ, the six products of two corner
    forests, and the new 3-forests

        4 T Q (U + R + L) + 2 (U^2 (R + L) + R^2 (L + U) + L^2 (R + U)) + 2 U R L,

    formed as 2 ((U + R + L) (2 TQ + RL) + U (UR + UL + R^2 + L^2)).
    """
    T, U, R, L, Q = bundle.T, bundle.U, bundle.R, bundle.L, bundle.Q
    TQ = T * Q
    UU, RR, LL, UR, UL, RL = U * U, R * R, L * L, U * R, U * L, R * L
    new_Q = 2 * ((U + R + L) * (2 * TQ + RL) + U * (UR + UL + RR + LL))
    return T * T, TQ, (UU, RR, LL, UR, UL, RL), new_Q


def dir_step(bundle: FiveBundle) -> FiveBundle:
    """T' = 2 T^2 (U + R + L), U' = T U (2 R + 2 L + 3 U) + T^2 Q, and R',
    L' alike, each corner's quadratic read off the shared products."""
    T, U, R, L = bundle.T, bundle.U, bundle.R, bundle.L
    TT, TQ, (UU, RR, LL, UR, UL, RL), new_Q = _five_products(bundle)
    return FiveBundle(
        2 * TT * (U + R + L),
        T * (2 * (UR + UL) + 3 * UU + TQ),
        T * (2 * (RL + UR) + 3 * RR + TQ),
        T * (2 * (RL + UL) + 3 * LL + TQ),
        new_Q,
        bundle.weights,
    )


def schreier_step(bundle: FiveBundle) -> FiveBundle:
    """T' = 2 T^2 (U + R + L), U' = T (3 L R + U R + U L + 2 U^2) + T^2 Q,
    and R', L' alike; Q' is the directional one."""
    T, U, R, L = bundle.T, bundle.U, bundle.R, bundle.L
    TT, TQ, (UU, RR, LL, UR, UL, RL), new_Q = _five_products(bundle)
    return FiveBundle(
        2 * TT * (U + R + L),
        T * (3 * RL + UR + UL + 2 * UU + TQ),
        T * (3 * UL + UR + RL + 2 * RR + TQ),
        T * (3 * UR + UL + RL + 2 * LL + TQ),
        new_Q,
        bundle.weights,
    )


def dir_bundle(n: int, w: Weights = SYMBOLS) -> FiveBundle:
    return iterate(dir_step, five_initial(w), n)


def schreier_bundle(n: int, w: Weights = SYMBOLS) -> FiveBundle:
    return iterate(schreier_step, five_initial(w), n)


# -- closed forms for the five-function models --------------------------------

# The two models differ only in their map and in the powers of 2 of T, of
# the product the corner forests share and of Q.  Factor k of each has
# the exponent (3^(n-k+1) + s)/6 with s = 3, -3 and -9 respectively, and
# the same cubic, f_of, closes Q in both.
_FIVE_MODELS = {
    "directional": (F_map, lambda n: (
        _exact_div(3**n + 6 * n - 9, 12),
        _exact_div(3**n - 6 * n + 3, 12),
        _exact_div(3**n - 18 * n + 39, 12),
    )),
    "schreier": (G_map, lambda n: (_exact_div(3 ** (n - 1) - 1, 2),) * 3),
}


def _closed_five(model: str, n: int, w: Weights, names=FIVE) -> FiveBundle:
    """Closed forms as factored products over the ring of w, by iterating
    the map on the weights.

    Only the components in ``names`` are built; the others are None.  T,
    the corner forests and Q hold the same factor objects, with exponents
    1 apart, so their values share the powers (``FactoredPoly.values``).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    mapping, twos = _FIVE_MODELS[model]
    two_t, two_corner, two_q = twos(n)
    corners = not {"U", "R", "L"}.isdisjoint(names)
    # T and Q need the iterates up to n - 2; the corner forests also need
    # iterate n - 1, the largest one
    iterates = _iterates(mapping, w, n - 1 if corners else max(n - 2, 0))
    factors = _factors(iterates, n)

    def product(two, s, last, *extra):
        # 2^two times factors 1..last at the shared law, times the extra bases
        powers = [(f, _exact_div(3 ** (n - k) + s, 6)) for k, f in enumerate(factors[:last])]
        return FactoredPoly({2: two}, powers + [(x, 1) for x in extra])

    def build(name):
        if name == "T":
            return product(two_t, 3, n)
        if name == "Q":
            return product(two_q, -9, n - 2, f_of(*iterates[n - 2])) if n > 1 else FactoredPoly()
        # at level 1 the shared product is empty and the iterate is (a, b, c)
        x, y, z = iterates[n - 1]
        return product(two_corner, -3, n - 1, {"U": y, "R": x, "L": z}[name])

    return FiveBundle(*(build(name) if name in names else None for name in FIVE), w)


def _evaluated(closed, n: int, w: Weights, names) -> FiveBundle:
    """The named closed forms at w as values, in one ``FactoredPoly.values``;
    the level is checked before any iterate is formed."""
    check_level(n, w)
    forms = closed(n, w, names)
    values = FactoredPoly.values([getattr(forms, k) for k in names])
    return forms._replace(**dict(zip(names, values)))


def dir_closed(n: int, w: Weights = SYMBOLS, names=FIVE) -> FiveBundle:
    return _closed_five("directional", n, w, names)


def schreier_closed(n: int, w: Weights = SYMBOLS, names=FIVE) -> FiveBundle:
    return _closed_five("schreier", n, w, names)


def dir_closed_value(n: int, w: Weights, names=FIVE) -> FiveBundle:
    """The closed forms at w; components not in ``names`` are None."""
    return _evaluated(dir_closed, n, w, names)


def schreier_closed_value(n: int, w: Weights, names=FIVE) -> FiveBundle:
    """The closed forms at w; components not in ``names`` are None."""
    return _evaluated(schreier_closed, n, w, names)
