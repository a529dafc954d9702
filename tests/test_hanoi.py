import math
import random
from fractions import Fraction

import pytest

from fractal_forest import hanoi, kirchhoff, sierpinski
from fractal_forest.algebra import FactoredPoly, TriPoly, Weights
from fractal_forest.errors import CapabilityError
from fractal_forest.graphs import build_hanoi
from fractal_forest.hanoi import (
    hanoi_bundle,
    hanoi_counts_closed,
    hanoi_counts_recursive,
    hanoi_step,
)
from fractal_forest.families import HANOI, ROUTES, Level
from fractal_forest.kirchhoff import schur_pipeline, tree_gf_cofactor
from fractal_forest.oracle import ForestSpec, enumerate_gf
from fractal_forest.sierpinski import (
    SYMBOLS,
    CountsTriple,
    FiveBundle,
    RotBundle,
    five_initial,
)

from conftest import (
    STEP_WEIGHTS,
    assert_homogeneous_cubic,
    count_products,
    plain_fold,
    positive_weight_list,
    reference_hanoi_counts,
    signed_bundles,
)

A, B, C = TriPoly.variables()
ONES = Weights.ones()
E = A * B + A * C + B * C


def test_initial_conditions():
    b = five_initial()
    assert (b.T, b.U, b.R, b.L, b.Q) == (E, B, A, C, TriPoly.const(1))


def test_level2_tree_polynomial():
    b2 = hanoi_step(five_initial())
    assert b2.T == E**4 + 2 * A * B * C * E**2 * (A + B + C)
    assert b2.T.evaluate(ONES) == 135


def test_level2_bundle_at_ones():
    b2 = hanoi_bundle(2, ONES)
    assert (b2.T, b2.U, b2.R, b2.L, b2.Q) == (135, 120, 120, 120, 320)


def test_counts_recursive_examples():
    assert hanoi_counts_recursive(1) == CountsTriple(3, 1, 1)
    c2 = hanoi_counts_recursive(2)
    assert (c2.tau, c2.s) == (135, 120)
    assert hanoi_counts_recursive(3).tau == 3 * 135**3 + 6 * 135**2 * 120 == 20503125


def test_counts_closed_examples():
    assert hanoi_counts_closed(1) == CountsTriple(3, 1, 1)
    c2 = hanoi_counts_closed(2)
    assert (c2.tau, c2.s) == (3**3 * 5, 3 * 5 * 8)
    assert hanoi_counts_closed(3).tau == 3**8 * 5**5


def test_counts_recursive_equals_closed_up_to_8():
    # and on through the evaluated cap, level 12
    for n in range(1, 13):
        assert hanoi_counts_recursive(n) == hanoi_counts_closed(n), n


def test_counts_recursive_equals_the_full_size_loop():
    for n in range(1, 10):
        assert hanoi_counts_recursive(n) == reference_hanoi_counts(n), n


def paper_counts_step(bundle: RotBundle) -> RotBundle:
    """The unweighted recursion on (T, S, Q) = (tau, s, q) as first
    transcribed, term by term; the counts step must equal this copy."""
    T, S, Q = bundle.T, bundle.S, bundle.Q
    return RotBundle(
        3 * T**3 + 6 * T**2 * S,
        T**3 + 7 * T**2 * S + 7 * T * S**2 + T**2 * Q,
        3 * T**2 * Q + 12 * T * S * Q + 14 * S**3 + 12 * T**2 * S + T**3 + 36 * T * S**2,
        bundle.weights,
    )


def _signed_counts(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [RotBundle(*(rng.randint(-10**6, 10**6) for _ in range(3)), ONES)
            for _ in range(count)]


def test_counts_step_equals_the_paper_equations():
    for bundle in _signed_counts(73, 200):
        assert hanoi._counts_step(bundle) == paper_counts_step(bundle), bundle
    # each distinct product of two components once: 24 in the copy above
    bundle = RotBundle(7, 11, 13, ONES)
    count, value = count_products(hanoi._counts_step, bundle)
    assert count_products(paper_counts_step, bundle) == (24, value)
    assert count <= 8


def test_counts_step_is_a_homogeneous_cubic():
    # what stepping on the primitive part rests on
    bundles = _signed_counts(79, 5)
    assert_homogeneous_cubic(hanoi._counts_step, bundles)
    assert_homogeneous_cubic(paper_counts_step, bundles)


def test_counts_cap_is_checked_before_any_step(monkeypatch):
    def refuse(bundle):
        raise AssertionError("a counts step ran")

    monkeypatch.setattr(hanoi, "_counts_step", refuse)
    with pytest.raises(AssertionError):
        hanoi_counts_recursive(2)
    with pytest.raises(CapabilityError, match="^evaluated bundles are capped at level 12$"):
        hanoi_counts_recursive(13)
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        hanoi_counts_recursive(0)
    assert hanoi_counts_recursive(1) == CountsTriple(3, 1, 1)


def test_counts_run_divides_out_a_nontrivial_content(monkeypatch):
    # clock-free: the level-12 counts come from one primitive run whose
    # contents are not all 1, so a fall-back to full-size steps fails here
    runs = []
    primitive_run = sierpinski.primitive_run

    def recording(step, initial, n):
        out = primitive_run(step, initial, n)
        runs.append((step, n, out))
        return out

    monkeypatch.setattr(sierpinski, "primitive_run", recording)
    assert hanoi_counts_recursive(12) == reference_hanoi_counts(12)
    [(step, n, (contents, primitive))] = runs
    assert (step, n) == (hanoi._counts_step, 12)
    assert len(contents) == 12 and contents != [1] * 12
    assert contents[1] == 5  # gcd(135, 120, 320)


def test_bundle_at_ones_reproduces_counts_up_to_6():
    for n in range(1, 7):
        b = hanoi_bundle(n, ONES)
        c = hanoi_counts_recursive(n)
        assert (b.T, b.U, b.R, b.L, b.Q) == (c.tau, c.s, c.s, c.s, c.q)


def test_recursion_transcription_against_oracle_at_level2():
    """Each right-hand side of the five weighted recursions, checked against
    exhaustive enumeration on the 9-vertex graph at random rational weights."""
    g2 = build_hanoi(2)
    specs = {
        "T": ForestSpec("tree"),
        "U": ForestSpec("two-forest", isolated="top"),
        "R": ForestSpec("two-forest", isolated="right"),
        "L": ForestSpec("two-forest", isolated="left"),
        "Q": ForestSpec("three-forest"),
    }
    gfs = {key: enumerate_gf(g2, spec) for key, spec in specs.items()}
    for w in positive_weight_list(41, 5):
        b2 = hanoi_bundle(2, w)
        for key in specs:
            assert getattr(b2, key) == gfs[key].evaluate(w), key


def test_weighted_cross_methods():
    weights = positive_weight_list(43, 10)
    for n in (2, 3, 4):
        g = build_hanoi(n)
        for w in weights:
            t_rec = hanoi_bundle(n, w).T
            if n < 3:  # no decimation step: the gf schur route is the cofactor
                iw, scale = w.clear_denominators()
                assert HANOI.unscaled(n, ROUTES["schur"](Level(HANOI, n), iw), scale) == t_rec
            else:
                assert t_rec == schur_pipeline(n, w)[0]
            if n <= 4:
                assert t_rec == tree_gf_cofactor(g, w)


SCHUR_CHECK = next(c for c in HANOI.checks if c.name == "recursion=schur")


def _schur_check(n: int, w):
    """verify's recursion=schur at integer weights w, which compares the
    recursion and the decimation as products of powers, and the
    comparison of the two values it stands for."""
    lv = Level(HANOI, n)
    agree = SCHUR_CHECK.left(lv, w) == SCHUR_CHECK.right(lv, w)
    return agree, lv.values(w)[0] == schur_pipeline(n, w)[0]


def test_decimation_products_agree_with_the_values():
    rng = random.Random(71)
    for n in range(3, 11):
        integer = Weights(*(rng.randint(1, 97) for _ in range(3)))
        rational = positive_weight_list(n, 1)[0].clear_denominators()[0]
        for w in (ONES.clear_denominators()[0], integer, rational):
            assert _schur_check(n, w) == (True, True), (n, w)
    # signed weights, where T, the D(t_k), det lambda_2 and a + b each take
    # both signs at levels 3-6
    for w in (Weights(1, 1, -2), Weights(2, -3, 5), Weights(3, -1, -1)):
        for n in range(3, 7):
            assert _schur_check(n, w) == (True, True), (n, w)


def test_decimation_products_catch_a_value_off_by_one(monkeypatch):
    # each step's D(t_k), and the numerator of det lambda_2, one off
    w = Weights.parse("13/61", "44/17", "7/90").clear_denominators()[0]
    for n in (3, 6):
        run = kirchhoff.decimation_run(n, w)
        corrupted = [run._replace(steps=(*run.steps[:k], (dt + 1, delta), *run.steps[k + 1:]))
                     for k, (dt, delta) in enumerate(run.steps)]
        corrupted.append(run._replace(det=Fraction(run.det.numerator + 1, run.det.denominator)))
        for bad in corrupted:
            monkeypatch.setattr(kirchhoff, "decimation_run", lambda n, w, bad=bad: bad)
            assert _schur_check(n, w) == (False, False), (n, bad)


def test_decimation_products_catch_an_exponent_off_by_one(monkeypatch):
    w, n = Weights.parse("1/3", "2/7", "5").clear_denominators()[0], 6
    tree = kirchhoff.Decimation.tree
    factors = tree(kirchhoff.decimation_run(n, w), w).factors
    lv = Level(HANOI, n)
    tried = 0
    for i, (base, _) in enumerate(factors):
        if abs(base) == 1:  # delta_0 = 1 at integer weights
            continue

        def off_by_one(run, w, i=i):
            out = tree(run, w)
            base, exp = out.factors[i]
            out.factors[i] = (base, exp + 1)
            return out

        monkeypatch.setattr(kirchhoff.Decimation, "tree", off_by_one)
        left, right = SCHUR_CHECK.left(lv, w), SCHUR_CHECK.right(lv, w)
        assert left != right, i
        assert FactoredPoly.values(left) != FactoredPoly.values(right), i
        tried += 1
    # four steps' D and delta_1..3, det's numerator and denominator, and a + b
    assert tried == 10


def test_decimation_products_equal_at_a_zero_tree():
    w = Weights(-1, 2, 2)
    assert schur_pipeline(3, w)[0] == 0
    assert _schur_check(3, w) == (True, True)


def test_growth_constant():
    growth = (math.log(3) + math.log(5)) / 4
    assert abs(growth - 0.6770126) < 1e-7
    tau6 = hanoi_counts_closed(6).tau
    assert abs(math.log(tau6) / 3**6 - growth) < 0.01


def test_symbolic_cap():
    hanoi_bundle(3)  # the symbolic cap; the runs past the caps are refused
    with pytest.raises(CapabilityError, match="^symbolic bundles are capped at level 3$"):
        hanoi_bundle(4)
    with pytest.raises(CapabilityError, match="^evaluated bundles are capped at level 12$"):
        hanoi_bundle(13, ONES)


def paper_hanoi_step(bundle: FiveBundle) -> FiveBundle:
    """The five weighted recursions as first transcribed, term by term;
    hanoi_step forms each product of bundle components once and must
    equal this copy."""
    a, b, c = bundle.weights
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
    return FiveBundle(new_T, new_U, new_R, new_L, new_Q, bundle.weights)


def test_step_equals_the_paper_equations():
    # symbolic through the symbolic cap, evaluated through level 7
    for w, top in ((SYMBOLS, 3), *((w, 7) for w in STEP_WEIGHTS)):
        bundle = five_initial(w)
        for level in range(2, top + 1):
            got = hanoi_step(bundle)
            assert got == paper_hanoi_step(bundle), (w, level)
            bundle = got


def test_step_products_formed_once():
    # products of two bundle components in one step: 38 in the paper's
    # equations above, each distinct product once in hanoi_step
    bundle = FiveBundle(7, 11, 13, 17, 19, Weights(2, 3, 5))
    count, value = count_products(hanoi_step, bundle)
    assert count_products(paper_hanoi_step, bundle) == (38, value)
    assert count <= 18


def test_step_is_a_homogeneous_cubic():
    # in the bundle's components; the weights a, b, c stay fixed
    bundles = signed_bundles(2, lambda w, x: FiveBundle(*x, w))
    bundles += [plain_fold(hanoi_step, five_initial(w), 3) for w in STEP_WEIGHTS]
    assert_homogeneous_cubic(hanoi_step, bundles)
    assert_homogeneous_cubic(paper_hanoi_step, bundles)
