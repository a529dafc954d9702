import math

import pytest

from fractal_forest.algebra import TriPoly, Weights
from fractal_forest.errors import CapabilityError
from fractal_forest.graphs import build_hanoi
from fractal_forest.hanoi import (
    hanoi_bundle,
    hanoi_counts_closed,
    hanoi_counts_recursive,
    hanoi_growth,
    hanoi_step,
)
from fractal_forest.kirchhoff import schur_pipeline, tree_gf_cofactor
from fractal_forest.oracle import ForestSpec, enumerate_gf
from fractal_forest.sierpinski import CountsTriple, five_initial

from conftest import positive_weight_list

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
    for n in range(1, 9):
        assert hanoi_counts_recursive(n) == hanoi_counts_closed(n)


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
            assert t_rec == schur_pipeline(n, w)[0]
            if n <= 4:
                assert t_rec == tree_gf_cofactor(g, w)


def test_growth_constant():
    assert abs(hanoi_growth() - (math.log(3) + math.log(5)) / 4) < 1e-12
    assert abs(hanoi_growth() - 0.6770126) < 1e-7
    tau6 = hanoi_counts_closed(6).tau
    assert abs(math.log(tau6) / 3**6 - hanoi_growth()) < 0.01


def test_symbolic_cap():
    b3 = hanoi_bundle(3)
    with pytest.raises(CapabilityError):
        hanoi_step(b3)
    with pytest.raises(CapabilityError):
        hanoi_bundle(13, ONES)
