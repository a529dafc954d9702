import importlib
import math

import pytest

from fractal_forest import algebra, hanoi, sierpinski
from fractal_forest.algebra import FactoredPoly, Jet, Products, TriPoly, Weights, power_products
from fractal_forest.errors import CapabilityError
from fractal_forest.families import FAMILIES, ROTATIONAL, Level
from fractal_forest.hanoi import hanoi_bundle, hanoi_counts_closed, hanoi_step
from fractal_forest.sierpinski import (
    FIVE,
    SYMBOLS,
    FiveBundle,
    RotBundle,
    _iterates,
    F_map,
    G_map,
    dir_bundle,
    dir_closed,
    dir_closed_value,
    dir_step,
    f_of,
    five_initial,
    iterate,
    rot_bundle,
    rot_closed,
    rot_counts,
    rot_initial,
    rot_step,
    rot_vertex_count,
    schreier_bundle,
    schreier_closed,
    schreier_closed_value,
    schreier_step,
    split_content,
)

from conftest import (
    STEP_WEIGHTS,
    ModP,
    assert_homogeneous_cubic,
    components,
    count_products,
    full_size_products,
    plain_fold,
    positive_weight_list,
    signed_bundles,
)

A, B, C = TriPoly.variables()
ONES = Weights.ones()
E = A * B + A * C + B * C


def test_rotational_initial_conditions():
    b = rot_initial()
    assert b.T == 3 * (A + B) * E**2
    assert b.S == (A + B) * (A + B + 3 * C) * E
    assert b.Q == (A + B) * (A + B + 3 * C) ** 2
    ones = rot_initial(ONES)
    assert (ones.T, ones.S, ones.Q) == (54, 30, 50)


def test_rotational_step_values():
    b2 = rot_step(rot_initial(ONES))
    assert b2.T == 6 * 54**2 * 30 == 524880
    assert b2.S == 7 * 54 * 900 + 54**2 * 50 == 486000
    assert b2.Q == 12 * 54 * 30 * 50 + 14 * 30**3 == 1350000


def test_rotational_closed_structure_level1():
    c1 = rot_closed(1)
    assert c1.T.primes == {2: 0, 3: 1, 5: 0}
    assert [(base.text(), exp) for base, exp in c1.T.factors] == [
        ("a + b", 1),
        ("a*b + a*c + b*c", 2),
    ]
    assert (
        c1.T.evaluate(ONES),
        c1.S.evaluate(ONES),
        c1.Q.evaluate(ONES),
    ) == (54, 30, 50)


def test_rotational_closed_equals_recursion():
    weights = positive_weight_list(23, 20)
    for n in range(1, 6):
        closed = rot_closed(n)
        for w in weights:
            b = rot_bundle(n, w)
            assert closed.T.evaluate(w) == b.T
            assert closed.S.evaluate(w) == b.S
            assert closed.Q.evaluate(w) == b.Q


def test_rotational_counts_and_growth():
    assert rot_counts(1) == rot_counts(1).__class__(54, 30, 50)
    assert rot_counts(2).tau == 524880
    assert rot_vertex_count(6) == 1095
    growth = math.log(2) / 3 + math.log(3) / 2 + math.log(5) / 6
    assert abs(growth - 1.0485949) < 1e-7
    assert abs(float(rot_closed(6).T.log_evaluate(ONES)) / 1095 - growth) < 0.01


def test_rotational_symbolic_cap():
    rot_bundle(3)  # the symbolic cap; the run past it is refused
    with pytest.raises(CapabilityError, match="^symbolic bundles are capped at level 3$"):
        rot_bundle(4)


def test_tree_monomials_have_spanning_degree():
    for n in (1, 2):
        T = rot_bundle(n).T
        expected = rot_vertex_count(n) - 1
        assert all(sum(e) == expected for e in T.terms)


def test_directional_initial_and_shift():
    b = five_initial()
    assert (b.T, b.U, b.R, b.L, b.Q) == (E, B, A, C, TriPoly.const(1))
    b2 = dir_bundle(2, ONES)
    assert b2.T == 54 == rot_bundle(1, ONES).T
    sym = dir_bundle(2, Weights.of(1, 1, 1))
    assert sym.U == sym.R == sym.L


def test_directional_closed_special_cases():
    phi1 = dir_closed(1).T.factors[0][0]
    assert phi1 == E
    q2 = dir_closed(2).Q
    assert q2.primes[2] == 1
    assert q2.factors[0][0] == f_of(A, B, C)
    # proof identities: U2 = phi1*F2, Q3 = 2*phi1^3*f(F(a,b,c))
    f1, f2, f3 = F_map(A, B, C)
    assert dir_bundle(2).U == phi1 * f2
    assert dir_bundle(3).Q == 2 * phi1 ** 3 * f_of(f1, f2, f3)


def test_directional_closed_equals_recursion():
    weights = positive_weight_list(31, 20)
    for n in range(1, 6):
        for w in weights:
            b = dir_bundle(n, w)
            c = dir_closed_value(n, w)
            assert (b.T, b.U, b.R, b.L, b.Q) == (c.T, c.U, c.R, c.L, c.Q)


def test_directional_closed_symbolic_sampling():
    b3 = dir_bundle(3)
    c3 = dir_closed(3)
    for rec, clo in zip((b3.T, b3.U, b3.R, b3.L, b3.Q), (c3.T, c3.U, c3.R, c3.L, c3.Q)):
        assert clo.expand() == rec


def test_schreier_initial_matches_directional():
    # the directional, schreier and hanoi recursions share one level-1 bundle
    for w in (SYMBOLS, ONES, Weights.of(2, 3, 5)):
        s, d, h = schreier_bundle(1, w), dir_bundle(1, w), hanoi_bundle(1, w)
        assert (s.T, s.U, s.R, s.L, s.Q) == (d.T, d.U, d.R, d.L, d.Q) == (h.T, h.U, h.R, h.L, h.Q)


def test_schreier_proof_identities():
    g1, g2, g3 = G_map(A, B, C)
    psi1 = schreier_closed(1).T.factors[0][0]
    assert psi1 == E
    b2 = schreier_bundle(2)
    assert b2.U == 2 * psi1 * g2
    assert b2.R == 2 * psi1 * g1
    assert b2.L == 2 * psi1 * g3
    assert schreier_bundle(3).Q == 2**4 * psi1 ** 3 * f_of(g1, g2, g3)
    assert schreier_bundle(2, ONES).T == 54
    assert schreier_bundle(3, ONES).T == 524880


def test_schreier_closed_equals_recursion():
    weights = positive_weight_list(37, 20)
    for n in range(1, 6):
        for w in weights:
            b = schreier_bundle(n, w)
            c = schreier_closed_value(n, w)
            assert (b.T, b.U, b.R, b.L, b.Q) == (c.T, c.U, c.R, c.L, c.Q)
    c3 = schreier_closed(3)
    b3 = schreier_bundle(3)
    for rec, clo in zip((b3.T, b3.U, b3.R, b3.L, b3.Q), (c3.T, c3.U, c3.R, c3.L, c3.Q)):
        assert clo.expand() == rec


def test_level_shift_at_ones_across_models():
    for n in range(1, 5):
        rot_t = rot_bundle(n, ONES).T
        assert dir_bundle(n + 1, ONES).T == rot_t
        assert schreier_bundle(n + 1, ONES).T == rot_t
        # two-forest counts match the rotational ones as well
        rot_s = rot_bundle(n, ONES).S
        d = dir_bundle(n + 1, ONES)
        s = schreier_bundle(n + 1, ONES)
        assert d.U == d.R == d.L == rot_s
        assert s.U == s.R == s.L == rot_s


def test_collapsing_corner_forests_recovers_rotational_step():
    # with U = R = L treated as one indeterminate, one directional or
    # schreier step is exactly one rotational step
    t, s, q = A, B, C  # reuse the three variables as stand-ins
    for step in (dir_step, schreier_step):
        five = step(FiveBundle(t, s, s, s, q))
        rot = rot_step(RotBundle(t, s, q))
        assert five.T == rot.T
        assert five.U == five.R == five.L == rot.S
        assert five.Q == rot.Q


def test_f_equals_g_but_maps_differ():
    probe = Weights.of(1, 2, 3)
    fx = tuple(p.evaluate(probe) for p in F_map(A, B, C))
    gx = tuple(p.evaluate(probe) for p in G_map(A, B, C))
    assert fx != gx
    # hence the factor families differ too: factor 3 of each is the sum of
    # the map's first iterate
    phi3, psi3 = (closed(3).T.factors[2][0] for closed in (dir_closed, schreier_closed))
    assert phi3 == sum(F_map(A, B, C)) and psi3 == sum(G_map(A, B, C))
    assert phi3 != psi3


RATIONAL_TRIPLES = (
    Weights.parse("1/3", "2/7", "5"),
    Weights.parse("13/61", "44/17", "7/90"),
    Weights.parse("-1/2", "3/4", "5/6"),
)


def test_components_are_homogeneous_integers_at_cleared_weights():
    # a component counting k-tree forests on |V| vertices has degree
    # |V| - k, so at the integer weights L*w it is an int, L^(|V| - k)
    # times its value at w
    for family in FAMILIES.values():
        for w in RATIONAL_TRIPLES:
            iw, scale = w.clear_denominators()
            assert scale > 1 and all(type(x) is int for x in iw)
            for n in range(1, 6):
                at_w = dict(zip(family.components, Level(family, n).values(w)))
                at_iw = dict(zip(family.components, Level(family, n).values(iw)))
                for name in family.components:
                    assert type(at_iw[name]) is int, (family.name, n, name)
                    assert at_iw[name] == scale ** family.degree(n, name) * at_w[name]
                    assert family.unscaled(n, at_iw[name], scale, name) == at_w[name]
                if family.closed is not None:
                    closed_w = family.closed_value(n, w, family.components)
                    closed_iw = family.closed_value(n, iw, family.components)
                    for name, x, y in zip(family.components, closed_w, closed_iw):
                        assert type(y) is int, (family.name, n, name)
                        assert y == scale ** family.degree(n, name) * x


def test_closed_value_builds_only_the_named_components():
    w = Weights.parse("1/3", "2/7", "5")
    for closed_value in (dir_closed_value, schreier_closed_value):
        for n in range(1, 6):
            full = closed_value(n, w)
            for names in (("T",), ("U", "Q"), ("R",), ("L", "T")):
                part = closed_value(n, w, names)
                for name in FIVE:
                    expected = getattr(full, name) if name in names else None
                    assert getattr(part, name) == expected, (n, names, name)


# -- the paper's step equations, as first transcribed ------------------------
# The steps above form each product of bundle components once; these
# copies spell each equation out term by term, and each step must equal
# its copy.


def paper_rot_step(bundle: RotBundle) -> RotBundle:
    T, S, Q = bundle.T, bundle.S, bundle.Q
    return RotBundle(
        6 * T**2 * S,
        7 * T * S**2 + T**2 * Q,
        12 * T * S * Q + 14 * S**3,
        bundle.weights,
    )


def paper_dir_step(bundle: FiveBundle) -> FiveBundle:
    T, U, R, L, Q = bundle.T, bundle.U, bundle.R, bundle.L, bundle.Q
    return FiveBundle(
        2 * T**2 * (U + R + L),
        T * U * (2 * R + 2 * L + 3 * U) + T**2 * Q,
        T * R * (2 * L + 2 * U + 3 * R) + T**2 * Q,
        T * L * (2 * R + 2 * U + 3 * L) + T**2 * Q,
        4 * T * Q * (U + R + L)
        + 2 * (U**2 * (R + L) + R**2 * (L + U) + L**2 * (R + U))
        + 2 * U * R * L,
        bundle.weights,
    )


def paper_schreier_step(bundle: FiveBundle) -> FiveBundle:
    T, U, R, L, Q = bundle.T, bundle.U, bundle.R, bundle.L, bundle.Q
    return FiveBundle(
        2 * T**2 * (U + R + L),
        T * (3 * L * R + U * R + U * L + 2 * U**2) + T**2 * Q,
        T * (3 * U * L + U * R + R * L + 2 * R**2) + T**2 * Q,
        T * (3 * U * R + L * U + R * L + 2 * L**2) + T**2 * Q,
        4 * T * Q * (U + R + L)
        + 2 * (U**2 * (L + R) + R**2 * (U + L) + L**2 * (R + U))
        + 2 * U * R * L,
        bundle.weights,
    )


STEPS = (
    (rot_step, paper_rot_step, rot_initial),
    (dir_step, paper_dir_step, five_initial),
    (schreier_step, paper_schreier_step, five_initial),
)


def test_steps_equal_the_paper_equations():
    # symbolic through the symbolic cap, evaluated through level 7
    for step, paper, initial in STEPS:
        for w, top in ((SYMBOLS, 3), *((w, 7) for w in STEP_WEIGHTS)):
            bundle = initial(w)
            for level in range(2, top + 1):
                got = step(bundle)
                assert got == paper(bundle), (step.__name__, w, level)
                bundle = got


def test_step_products_formed_once():
    # products of two bundle components in one step: the paper's equations
    # above form 10, 24 and 33, the steps each distinct product once
    w = Weights(2, 3, 5)
    five = FiveBundle(7, 11, 13, 17, 19, w)
    for step, paper, bundle, paper_count, pin in (
        (rot_step, paper_rot_step, RotBundle(7, 11, 13, w), 10, 6),
        (dir_step, paper_dir_step, five, 24, 14),
        (schreier_step, paper_schreier_step, five, 33, 14),
    ):
        count, value = count_products(step, bundle)
        assert count_products(paper, bundle) == (paper_count, value), step.__name__
        assert count <= pin, (step.__name__, count)


def _plain_product(p: FactoredPoly, w) -> int:
    value = 2 ** p.primes[2] * 3 ** p.primes[3] * 5 ** p.primes[5]
    for base, exp in p.factors:
        value *= base.evaluate(w) ** exp
    return value


# the exponent laws of each model as first transcribed: the prefactor 2^e
# and the power of factor k of T, of the product the corner forests share
# and of Q; the library derives all six from one law and a table of the
# powers of 2
def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, (num, den)
    return q


MODEL_LAWS = {
    "directional": {
        "map": F_map,
        "tail": f_of,
        "T2": lambda n: _exact(3**n + 6 * n - 9, 12),
        "Texp": lambda n, k: _exact(3 ** (n - k + 1) + 3, 6),
        "U2": lambda n: _exact(3**n - 6 * n + 3, 12),
        "Uexp": lambda n, k: _exact(3 ** (n - k + 1) - 3, 6),
        "Q2": lambda n: _exact(3**n - 18 * n + 39, 12),
        "Qexp": lambda n, k: _exact(3 ** (n - k + 1) - 9, 6),
    },
    "schreier": {
        "map": G_map,
        "tail": f_of,  # the same cubic closes both models
        "T2": lambda n: _exact(3 ** (n - 1) - 1, 2),
        "Texp": lambda n, k: _exact(3 ** (n - k) + 1, 2),
        "U2": lambda n: _exact(3 ** (n - 1) - 1, 2),
        "Uexp": lambda n, k: _exact(3 ** (n - k) - 1, 2),
        "Q2": lambda n: _exact(3 ** (n - 1) - 1, 2),
        "Qexp": lambda n, k: _exact(3 ** (n - k) - 3, 2),
    },
}


def _plain_closed_five(model: str, n: int, w) -> tuple:
    """The five closed forms at w, each factor's power taken on its own."""
    laws = MODEL_LAWS[model]
    iterates = _iterates(laws["map"], w, n - 1)
    a, b, c = iterates[0]
    factors = [a * b + a * c + b * c] + [x + y + z for x, y, z in iterates[: n - 1]]

    def product(two, exponent, last):
        value = 2**two
        for k in range(1, last + 1):
            value *= factors[k - 1] ** exponent(n, k)
        return value

    shared = product(laws["U2"](n), laws["Uexp"], n - 1)
    x, y, z = iterates[n - 1]
    q = 1 if n == 1 else product(laws["Q2"](n), laws["Qexp"], n - 2) * laws["tail"](*iterates[n - 2])
    return (product(laws["T2"](n), laws["Texp"], n), shared * y, shared * x, shared * z, q)


def test_shared_exponent_law_equals_each_models_transcription():
    # the powers of 2 and the exponent of every factor, levels 1-10; a
    # corner forest and Q end in their own iterate and cubic, of power 1
    w = Weights(2, 3, 5)
    for model, closed in (("directional", dir_closed), ("schreier", schreier_closed)):
        laws = MODEL_LAWS[model]
        for n in range(1, 11):
            five = closed(n, w)
            for name, law, last, extra in (("T", "T", n, 0), ("U", "U", n - 1, 1),
                                           ("R", "U", n - 1, 1), ("L", "U", n - 1, 1),
                                           ("Q", "Q", n - 2, int(n > 1))):
                got = getattr(five, name)
                two = laws[f"{law}2"](n) if n > 1 or name != "Q" else 0
                assert got.primes == {2: two, 3: 0, 5: 0}, (model, n, name)
                exps = [laws[f"{law}exp"](n, k) for k in range(1, last + 1)] + [1] * extra
                assert [e for _, e in got.factors] == exps, (model, n, name)


def test_shared_powers_equal_plain_products():
    for w in STEP_WEIGHTS:
        for n in range(1, 11):
            rot = rot_closed(n)
            assert ROTATIONAL.closed_value(n, w, ("T", "S", "Q")) == tuple(
                _plain_product(p, w) for p in (rot.T, rot.S, rot.Q)), (w, n)
            for model, closed_value in (("directional", dir_closed_value),
                                        ("schreier", schreier_closed_value)):
                five = closed_value(n, w)
                assert (five.T, five.U, five.R, five.L, five.Q) == _plain_closed_five(
                    model, n, w), (model, w, n)


# -- iterating on the primitive part ------------------------------------------
# ``iterate`` steps an integer bundle on its primitive part and forms the
# content once at the end, which is exact because every step is a
# homogeneous cubic in the bundle's components.


def test_steps_are_homogeneous_cubics():
    for step, paper, initial in STEPS:
        if initial is rot_initial:
            bundles = signed_bundles(1, lambda w, x: RotBundle(*x[:3], w))
        else:
            bundles = signed_bundles(1, lambda w, x: FiveBundle(*x, w))
        bundles += [plain_fold(step, initial(w), 3) for w in STEP_WEIGHTS]
        assert_homogeneous_cubic(step, bundles)
        assert_homogeneous_cubic(paper, bundles)


BUNDLES = (
    (rot_bundle, rot_step, rot_initial),
    (dir_bundle, dir_step, five_initial),
    (schreier_bundle, schreier_step, five_initial),
    (hanoi_bundle, hanoi_step, five_initial),
)


@pytest.mark.parametrize("bundle, step, initial", BUNDLES, ids=[b[0].__name__ for b in BUNDLES])
def test_split_bundle_equals_the_plain_fold(bundle, step, initial):
    # the degenerate, signed and cleared rational triples, levels 1-10
    for w in STEP_WEIGHTS:
        folded = initial(w)
        for n in range(1, 11):
            if n > 1:
                folded = step(folded)
            assert bundle(n, w) == folded, (w, n)


@pytest.mark.parametrize("bundle, step, initial", BUNDLES, ids=[b[0].__name__ for b in BUNDLES])
def test_variables_as_weights_keep_the_symbolic_cap(bundle, step, initial, monkeypatch):
    # the weights are the ring: the variables passed in explicitly are
    # refused past level 3 like the default, before any step runs
    def refuse(b):
        raise AssertionError(f"{step.__name__} ran")

    monkeypatch.setattr(importlib.import_module(step.__module__), step.__name__, refuse)
    with pytest.raises(CapabilityError, match="^symbolic bundles are capped at level 3$"):
        bundle(4, Weights(*TriPoly.variables()))


def test_bundles_and_closed_values_run_mod_p():
    # ModP is a ring the package has no code for: every bundle and every
    # weighted closed form at ModP weights is the exact value mod p
    for triple in ((2, 3, 5), (1, -1, 3)):
        exact_w, mod_w = Weights(*triple), Weights(*map(ModP, triple))
        for family in FAMILIES.values():
            for n in (1, 4, 9, 12):
                exact = Level(family, n).values(exact_w)
                got = Level(family, n).values(mod_w)
                assert all(isinstance(x, ModP) for x in got), (family.name, n)
                assert got == exact, (family.name, triple, n)
                if family.closed is not None:
                    closed = family.closed_value(n, mod_w, family.components)
                    assert closed == exact, (family.name, triple, n)
    for family in FAMILIES.values():
        with pytest.raises(CapabilityError, match="^evaluated bundles are capped at level 12$"):
            Level(family, 13).values(mod_w)


def test_steps_run_past_the_evaluated_cap_mod_p():
    # a step is its map alone: over ModP, whose elements do not grow, the
    # steps run to level 13 and meet the closed forms there; only the
    # runners refuse level 13.  The closed forms' prime prefactors are
    # plain ints, so the level stays where 2^(3^12) is cheap
    n, refused = 13, "^evaluated bundles are capped at level 12$"
    for triple in ((2, 3, 5), (1, -1, 3)):
        mod_w = Weights(*map(ModP, triple))
        rot = plain_fold(rot_step, rot_initial(mod_w), n)
        closed = rot_closed(n, mod_w)
        assert [rot.T, rot.S, rot.Q] == FactoredPoly.values([closed.T, closed.S, closed.Q])
        for step, closed in ((dir_step, dir_closed), (schreier_step, schreier_closed)):
            five = plain_fold(step, five_initial(mod_w), n)
            forms = closed(n, mod_w)
            expected = FactoredPoly.values([getattr(forms, k) for k in FIVE])
            assert [getattr(five, k) for k in FIVE] == expected, (step.__name__, triple)
        with pytest.raises(CapabilityError, match=refused):
            rot_bundle(n, mod_w)
        for family in FAMILIES.values():
            with pytest.raises(CapabilityError, match=refused):
                Level(family, n).values(mod_w)
    counts = plain_fold(hanoi._counts_step, RotBundle(*map(ModP, (3, 1, 1)), ONES), n)
    expected = hanoi_counts_closed(n)
    assert (counts.T, counts.S, counts.Q) == (expected.tau, expected.s, expected.q)


def _run_values(family, n: int, w, ring=lambda x: x) -> list:
    """The level-n components by the primitive run at w, the content powers
    and each primitive component multiplied out with their bases in ring."""
    products = Level(family, n).products(w)
    return FactoredPoly.values(
        [FactoredPoly(p.primes, [(ring(b), e) for b, e in p.factors]) for p in products])


def test_primitive_run_multiplied_out_is_the_bundle():
    # verify compares closed forms with the run unmultiplied, and gf reads
    # the run multiplied out by Level.values; this holds both against
    # iterate's bundle: over int at levels 1-9, symbolically at levels
    # 1-3, over jets at levels 1-6, and mod p at level 12
    jets = Weights(Jet(2, 1), Jet(3, 0, 1), Jet(5, -1, 2))
    for family in FAMILIES.values():
        def want(n, w):
            bundle = iterate(family.step, family.initial(w), n)
            return [getattr(bundle, c) for c in family.components]

        for w in STEP_WEIGHTS:
            for n in range(1, 10):
                expected = want(n, w)
                assert _run_values(family, n, w) == expected, (family.name, w, n)
                assert list(Level(family, n).values(w)) == expected, (family.name, w, n)
        for n in range(1, 4):
            assert list(Level(family, n).values(SYMBOLS)) == want(n, SYMBOLS), (family.name, n)
        for n in range(1, 7):
            assert list(Level(family, n).values(jets)) == want(n, jets), (family.name, n)
        for w in STEP_WEIGHTS[-3:]:
            mod_w = Weights(*map(ModP, w))
            expected = want(12, mod_w)
            assert _run_values(family, 12, w, ModP) == expected, (family.name, w)
            assert list(Level(family, 12).values(mod_w)) == expected, (family.name, w)


def test_closed_equals_recursion_multiplies_nothing_out(monkeypatch):
    # clock-free: the check forms no product of powers on either side
    def refuse(*args):
        raise AssertionError("a product of powers was formed")

    monkeypatch.setattr(algebra, "_power_product", refuse)
    monkeypatch.setattr(sierpinski, "power_products", refuse)
    checks = [(f, c, (1, 2, 5, 9))
              for f in FAMILIES.values() for c in f.checks if c.name == "closed = recursion"]
    assert len(checks) == 3
    hanoi = FAMILIES["hanoi"]
    checks += [(hanoi, c, range(3, 10)) for c in hanoi.checks if c.name == "recursion=schur"]
    assert len(checks) == 4
    for family, check, levels in checks:
        for n in levels:
            for w in positive_weight_list(n, 2):
                lv, iw = Level(family, n), w.clear_denominators()[0]
                assert check.left(lv, iw) == check.right(lv, iw), (family.name, n, w)
    with pytest.raises(AssertionError, match="product of powers"):
        rot_bundle(2, Weights(1, 2, 3))


def test_every_check_side_has_a_repr():
    # a failing assertion on a verify side prints it: values, tuples of
    # values and products of powers of ints alike
    sides = products = 0
    for family in FAMILIES.values():
        for n in (3, 4):
            lv = Level(family, n)
            for w in (ONES, Weights.parse("13/61", "44/17", "7/90")):
                iw = w.clear_denominators()[0]
                for check in family.checks:
                    if n < check.first_level or family.skip_reason(check.route, n, w):
                        continue
                    for side in (check.left(lv, iw), check.right(lv, iw)):
                        assert repr(side), (family.name, n, w, check.name)
                        sides += 1
                        products += isinstance(side, Products)
    assert (sides, products) == (104, 32)


def test_level_runs_and_forms_the_content_once_per_weights(monkeypatch):
    w1, w2 = (w.clear_denominators()[0] for w in positive_weight_list(4, 2))
    full, other = hanoi_bundle(6, w1), hanoi_bundle(6, w2)
    calls = []

    def counting(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    def refuse(products):
        raise AssertionError("FactoredPoly.values multiplied the run out")

    monkeypatch.setattr(FactoredPoly, "values", staticmethod(refuse))
    monkeypatch.setattr(sierpinski, "content", counting("content", sierpinski.content))
    monkeypatch.setattr(sierpinski, "primitive_run", counting("run", sierpinski.primitive_run))
    lv = Level(FAMILIES["hanoi"], 6)
    assert lv.products(w1) and calls == ["run"]
    assert lv.values(w1)[0] == full.T and calls == ["run", "content"]
    assert lv.values(w1) == tuple(components(full).values()) and calls == ["run", "content"]
    assert lv.values(w2)[0] == other.T and calls == ["run", "content"] * 2


def test_all_zero_bundle_is_left_as_it_is():
    zero = Weights(0, 0, 0)
    for n in range(2, 11):
        b = hanoi_bundle(n, zero)
        assert set(components(b).values()) == {0}, n
        assert split_content(b) == (1, b)


def test_symbolic_and_fraction_bundles_step_unsplit():
    fraction_w = Weights.parse("1/3", "2/7", "5")
    for bundle, step, initial in BUNDLES:
        for w, top in ((SYMBOLS, 3), (fraction_w, 6)):
            for n in range(1, top + 1):
                b = bundle(n, w)
                assert b == plain_fold(step, initial(w), n), (bundle.__name__, w, n)
                assert split_content(b) == (1, b)
    assert all(type(x) is not int for x in components(hanoi_bundle(6, fraction_w)).values())


def test_iterate_steps_on_the_primitive_part():
    # clock-free: at hanoi level 8 the full components run to about 108k
    # bits and their primitive part to about 6.4k; a step fed the full
    # level-7 bundle would see about 36k bits
    w = Weights.parse("13/61", "44/17", "7/90").clear_denominators()[0]
    full = hanoi_bundle(8, w)
    _, primitive = split_content(full)
    bits = max(x.bit_length() for x in components(full).values())
    assert max(x.bit_length() for x in components(primitive).values()) < bits // 10
    assert full == plain_fold(hanoi_step, five_initial(w), 8)
    seen = []

    def recording_step(b):
        parts = components(b).values()
        seen.append((math.gcd(*parts), max(x.bit_length() for x in parts)))
        return hanoi_step(b)

    assert iterate(recording_step, five_initial(w), 8) == full
    assert len(seen) == 7
    assert all(g == 1 and size < bits // 10 for g, size in seen), seen


def test_content_is_one_squaring_chain(monkeypatch):
    # clock-free: the contents of all the steps meet in one product of
    # powers, with at most two products of its own size per bit of 3^(n-1)
    calls = []

    def counting(bases, rows):
        values, full = full_size_products(bases, rows, power_products)
        calls.append((rows, full))
        return values

    monkeypatch.setattr(sierpinski, "power_products", counting)
    w = Weights.parse("13/61", "44/17", "7/90").clear_denominators()[0]
    for bundle, step, initial in BUNDLES:
        calls.clear()
        assert bundle(8, w) == plain_fold(step, initial(w), 8), bundle.__name__
        [(rows, full)] = calls
        assert rows == [[3**7, 3**6, 3**5, 3**4, 27, 9, 3, 1]]
        assert 0 < full <= 2 * (3**7).bit_length(), (bundle.__name__, full)
