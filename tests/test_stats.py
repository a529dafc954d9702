from fractions import Fraction

import mpmath
import pytest

from fractal_forest.algebra import Weights
from fractal_forest.errors import CapabilityError
from fractal_forest.sierpinski import rot_bundle, rot_vertex_count
from fractal_forest.stats import (
    label_mean_gf,
    label_stat_closed,
    label_variance_gf,
    mgf_normalized,
    normality_gap,
)

ROT = "sierpinski-rotational"


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
        label_mean_gf("hanoi", 4, "a")


def test_mgf_basics():
    assert mgf_normalized(5, 0) == 1
    with mpmath.workdps(50):
        v = mgf_normalized(12, 1)
        assert abs(v - mpmath.exp(mpmath.mpf(1) / 2)) < 0.05
        # a-count route exists too and converges
        va = mgf_normalized(12, 1, label="a")
        assert abs(va - mpmath.exp(mpmath.mpf(1) / 2)) < 0.05


def test_mgf_takes_fraction_int_and_mpf_arguments():
    half = mgf_normalized(3, Fraction(1, 2))
    assert half == mgf_normalized(3, mpmath.mpf(1) / 2)
    assert mgf_normalized(3, Fraction(-2)) == mgf_normalized(3, -2) == mgf_normalized(3, mpmath.mpf(-2))


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
            d1 = T.derivative(label)
            mean = Fraction(d1.evaluate(ones), T.evaluate(ones))
            falling = Fraction(d1.derivative(label).evaluate(ones), T.evaluate(ones))
            variance = falling + mean - mean * mean
            with mpmath.workdps(60):
                sigma = mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator)
                for t in (-2, mpmath.mpf(-1) / 2, 1, 2):
                    s = t / sigma
                    w = Weights(**{v: mpmath.exp(s) if v == label else 1 for v in "abc"})
                    expected = (T.evaluate(w) / T.evaluate(ones)
                                * mpmath.exp(-s * mean.numerator / mean.denominator))
                    got = mgf_normalized(n, t, label)
                    assert abs(got - expected) < mpmath.mpf(10) ** -40 * expected, (n, label, t)
