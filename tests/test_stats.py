from fractions import Fraction

import mpmath
import pytest

from fractal_forest.algebra import LOG_DPS, VARS, FactoredPoly, Jet, Weights
from fractal_forest.errors import CapabilityError
from fractal_forest.families import Level, lookup
from fractal_forest.kirchhoff import tree_gf_cofactor
from fractal_forest.sierpinski import FIVE, SYMBOLS, rot_bundle, rot_vertex_count
from fractal_forest.stats import (
    _log_mgf,
    _mpf,
    label_mean_gf,
    label_moments,
    label_stat_closed,
    label_variance_gf,
    normality_gap,
)

from conftest import derivative

ROT = "sierpinski-rotational"
OTHERS = ("hanoi", "sierpinski-directional", "sierpinski-schreier")
MODELS = (ROT, *OTHERS)
ONES = Weights.ones()


def mgf_at(n: int, t, label: str = "c") -> mpmath.mpf:
    """The MGF of the normalized label count that normality_gap evaluates,
    at one argument t (Fraction, int or mpf)."""
    with mpmath.workdps(LOG_DPS):
        return +mpmath.exp(_log_mgf(n, label)(_mpf(t)))


def test_spot_values_level1():
    assert label_mean_gf(ROT, 1, "c") == Fraction(4, 3)
    assert label_variance_gf(ROT, 1, "c") == Fraction(4, 9)
    assert label_mean_gf(ROT, 1, "a") == Fraction(11, 6)
    assert label_variance_gf(ROT, 1, "a") == Fraction(25, 36)


def test_closed_formulas():
    st = label_stat_closed(1, "c")
    assert (st.mean, st.variance) == (Fraction(4, 3), Fraction(4, 9))
    st = label_stat_closed(1, "a")
    assert (st.mean, st.variance) == (Fraction(11, 6), Fraction(25, 36))
    assert label_stat_closed(2, "c").mean == Fraction(118, 30)


def test_closed_matches_log_derivatives_up_to_6():
    for n in range(1, 7):
        for label in "abc":
            st = label_stat_closed(n, label)
            assert label_mean_gf(ROT, n, label) == st.mean
            assert label_variance_gf(ROT, n, label) == st.variance


def test_a_b_symmetry_and_mean_sum():
    for n in range(1, 7):
        assert label_stat_closed(n, "a").mean == label_stat_closed(n, "b").mean
        assert label_stat_closed(n, "a").variance == label_stat_closed(n, "b").variance
        total = sum(label_mean_gf(ROT, n, label) for label in "abc")
        assert total == rot_vertex_count(n) - 1


def test_other_models_small_levels():
    # all labels play the same role, so the three means agree and sum to |V|-1
    for model, nv in (("hanoi", 9), ("sierpinski-directional", 6), ("sierpinski-schreier", 6)):
        means = [label_mean_gf(model, 2, label) for label in "abc"]
        assert means[0] == means[1] == means[2]
        assert sum(means) == nv - 1
        assert label_variance_gf(model, 2, "a") > 0
    with pytest.raises(CapabilityError):
        label_mean_gf("hanoi", 13, "a")


@pytest.mark.parametrize("model", OTHERS)
def test_other_models_means_agree_up_to_8(model):
    for n in range(1, 9):
        means = [label_mean_gf(model, n, label) for label in "abc"]
        assert means[0] == means[1] == means[2], n
        assert sum(means) == lookup(model).vertices(n) - 1, n


def _log_derivs(T: FactoredPoly, label: str):
    """(first, second) derivative of log T along one label, at all-ones,
    from the derivatives of each base of a symbolic product."""
    first = Fraction(0)
    second = Fraction(0)
    for base, exp in T.factors:
        v = base.evaluate(ONES)
        d1 = derivative(base, label).evaluate(ONES)
        d2 = derivative(derivative(base, label), label).evaluate(ONES)
        first += exp * d1 / v
        second += exp * (d2 * v - d1 * d1) / (v * v)
    return first, second


def _symbolic_tree(model: str, n: int) -> FactoredPoly:
    family = lookup(model)
    if family.closed is not None:
        return family.closed(n).T
    return FactoredPoly(factors=[(Level(family, n).values(SYMBOLS)[0], 1)])


@pytest.mark.parametrize("model", MODELS)
def test_jets_equal_symbolic_log_derivatives(model):
    for n in range(1, 4):
        for label in "abc":
            first, second = _log_derivs(_symbolic_tree(model, n), label)
            assert label_moments(model, n, label) == (first, second + first), (n, label)


def _laplacian_moments(graph, label: str):
    """Mean and variance of the label count from the matrix-tree theorem
    alone: at x on the label and 1 elsewhere T is a polynomial in x of
    degree at most m, the number of label edges, so its values at
    x = 0..m fix it; its coefficients give T, T' and T'' at x = 1."""
    m = sum(e.label == label for e in graph.nonloop_edges())
    values = [
        tree_gf_cofactor(graph, Weights(**{v: x if v == label else 1 for v in VARS}))
        for x in range(m + 1)
    ]
    # Newton's form T(x) = sum_k D^k T(0) binom(x, k), expanded in powers of x
    coeffs = [Fraction(0)] * (m + 1)
    binom = [Fraction(1)]  # binom(x, k), lowest power first
    for k in range(m + 1):
        for i, c in enumerate(binom):
            coeffs[i] += values[0] * c
        values = [y - x for x, y in zip(values, values[1:])]
        binom = [((binom[i - 1] if i else 0) - k * (binom[i] if i < len(binom) else 0)) / (k + 1)
                 for i in range(len(binom) + 1)]
    t0 = sum(coeffs)
    t1 = sum(i * c for i, c in enumerate(coeffs))
    t2 = sum(i * (i - 1) * c for i, c in enumerate(coeffs))
    mean = t1 / t0
    return mean, t2 / t0 + mean - mean * mean


@pytest.mark.parametrize("model, n", zip(OTHERS, (3, 4, 4)))
def test_moments_equal_the_laplacian_past_the_old_cap(model, n):
    g = lookup(model).graph(n, False)
    for label in "abc":
        mean, variance = _laplacian_moments(g, label)
        assert mean == Fraction(len(g.vertices) - 1, 3)
        assert label_moments(model, n, label) == (mean, variance), label


def test_mgf_basics():
    assert mgf_at(5, 0) == 1
    with mpmath.workdps(50):
        v = mgf_at(12, 1)
        assert abs(v - mpmath.exp(mpmath.mpf(1) / 2)) < 0.05
        # a-count route exists too and converges
        va = mgf_at(12, 1, label="a")
        assert abs(va - mpmath.exp(mpmath.mpf(1) / 2)) < 0.05


def test_mgf_takes_fraction_int_and_mpf_arguments():
    half = mgf_at(3, Fraction(1, 2))
    assert half == mgf_at(3, mpmath.mpf(1) / 2)
    assert mgf_at(3, Fraction(-2)) == mgf_at(3, -2) == mgf_at(3, mpmath.mpf(-2))


def test_normality_gap_small_and_monotone():
    gaps = [normality_gap(n) for n in (4, 8, 12)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.05
    assert normality_gap(12, label="a") < 0.05


def test_mgf_equals_the_symbolic_recursion():
    # E[e^(sX)] = T(e^s on the label, 1 elsewhere) / T(1, 1, 1) for the
    # recursion's own T, whose derivatives also give the mean and variance
    ones = Weights.ones()
    for n in (1, 2, 3):
        T = rot_bundle(n).T
        for label in "abc":
            d1 = derivative(T, label)
            mean = Fraction(d1.evaluate(ones), T.evaluate(ones))
            falling = Fraction(derivative(d1, label).evaluate(ones), T.evaluate(ones))
            variance = falling + mean - mean * mean
            with mpmath.workdps(60):
                sigma = mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator)
                for t in (-2, mpmath.mpf(-1) / 2, 1, 2):
                    s = t / sigma
                    w = Weights(**{v: mpmath.exp(s) if v == label else 1 for v in "abc"})
                    expected = (T.evaluate(w) / T.evaluate(ones)
                                * mpmath.exp(-s * mean.numerator / mean.denominator))
                    got = mgf_at(n, t, label)
                    assert abs(got - expected) < mpmath.mpf(10) ** -40 * expected, (n, label, t)


def _bundle_jet_moments(model: str, n: int, label: str):
    """Mean and variance read off the jet T of the bundle recursion, the
    route the gasket statistics took before they read the closed form."""
    w = Weights(**{v: Jet(1, int(v == label)) for v in VARS})
    c0, c1, c2 = Level(lookup(model), n).values(w)[0].coefficients()
    mean = Fraction(c1, c0)
    return mean, Fraction(2 * c2, c0) - mean * mean + mean


@pytest.mark.parametrize("model", ("sierpinski-directional", "sierpinski-schreier"))
def test_gasket_moments_equal_the_bundle_jets(model):
    for n in range(1, 10):
        for label in "abc":
            assert label_moments(model, n, label) == _bundle_jet_moments(model, n, label), (n, label)


@pytest.mark.parametrize("model", ("sierpinski-directional", "sierpinski-schreier"))
def test_gasket_jets_by_recursion_equal_closed_forms(model):
    # the recursion the statistics run and the evaluated closed form give
    # the same jets, every component, well past the symbolic cap; at level
    # 1 the closed Q is the empty product, the int 1, and the bundle's a
    # jet
    family = lookup(model)
    for label in "abc":
        w = Weights(**{v: Jet(1, 1) if v == label else 1 for v in VARS})
        for n in (1, 2, 3, 4, 7):
            assert family.closed_value(n, w, FIVE) == Level(family, n).values(w), (n, label)
