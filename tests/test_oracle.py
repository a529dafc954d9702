import pytest

from fractal_forest.algebra import TriPoly, Weights
from fractal_forest.errors import CapabilityError
from fractal_forest.graphs import build_hanoi, build_sierpinski
from fractal_forest.kirchhoff import tree_gf_cofactor
from fractal_forest.oracle import ForestSpec, enumerate_gf

from conftest import positive_weight_list

A, B, C = TriPoly.variables()
ONES = Weights.ones()


def test_tree_gf_examples():
    assert enumerate_gf(build_hanoi(1), ForestSpec("tree")) == A * B + A * C + B * C
    top = ForestSpec("two-forest", isolated="top")
    assert enumerate_gf(build_sierpinski(1, "directional"), top) == B
    three = enumerate_gf(build_sierpinski(1, "rotational"), ForestSpec("three-forest"))
    assert three == (A + B) * (A + B + 3 * C) ** 2


def test_count_trees_examples():
    def count_trees(g):
        return enumerate_gf(g, ForestSpec("tree")).evaluate(ONES)

    assert count_trees(build_hanoi(1)) == 3
    assert count_trees(build_sierpinski(1, "rotational")) == 54
    assert count_trees(build_hanoi(2)) == 135


def test_corner_two_forests_on_rotational_level1():
    g = build_sierpinski(1, "rotational")
    values = [
        enumerate_gf(g, ForestSpec("two-forest", isolated=corner)).evaluate(ONES)
        for corner in ("top", "left", "right")
    ]
    assert values == [30, 30, 30]
    assert sum(values) == 90


def test_monomial_degrees():
    for g in (build_hanoi(2), build_sierpinski(1, "rotational")):
        nv = len(g.vertices)
        tree = enumerate_gf(g, ForestSpec("tree"))
        assert all(sum(e) == nv - 1 for e in tree.terms)
        two = enumerate_gf(g, ForestSpec("two-forest", isolated="left"))
        assert all(sum(e) == nv - 2 for e in two.terms)
        three = enumerate_gf(g, ForestSpec("three-forest"))
        assert all(sum(e) == nv - 3 for e in three.terms)


def test_oracle_agrees_with_cofactor_on_small_corpus():
    corpus = [
        build_hanoi(1),
        build_hanoi(2),
        build_sierpinski(1, "rotational"),
        build_sierpinski(2, "directional"),
        build_sierpinski(2, "schreier"),
    ]
    weights = positive_weight_list(11, 10)
    for g in corpus:
        tree = enumerate_gf(g, ForestSpec("tree"))
        for w in weights:
            assert tree.evaluate(w) == tree_gf_cofactor(g, w)


def test_loops_are_stripped_and_cap_enforced():
    with_loops = build_hanoi(2, include_loops=True)
    assert enumerate_gf(with_loops, ForestSpec("tree")) == enumerate_gf(
        build_hanoi(2), ForestSpec("tree")
    )
    with pytest.raises(CapabilityError):
        enumerate_gf(build_hanoi(3), ForestSpec("tree"))  # 39 edges


def test_forest_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec("forest")
    with pytest.raises(ValueError):
        ForestSpec("two-forest")
    with pytest.raises(ValueError):
        ForestSpec("tree", isolated="top")
