"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison of exact quantities is at zero tolerance; the only
approximate checks are the growth-constant and normality gaps, whose
tolerances are pinned inline.
"""

import math
import time
from fractions import Fraction

import mpmath

from fractal_forest.algebra import TriPoly, Weights
from fractal_forest.graphs import build_hanoi, build_sierpinski
from fractal_forest.hanoi import (
    hanoi_bundle,
    hanoi_counts_closed,
    hanoi_counts_recursive,
)
from fractal_forest.kirchhoff import (
    SchurState,
    _sparse_det,
    lambda_matrix,
    schur_map,
    schur_map_divergence,
    schur_pipeline,
    tree_gf_cofactor,
)
from fractal_forest.oracle import ForestSpec, enumerate_gf
from fractal_forest.sierpinski import (
    dir_bundle,
    dir_closed_value,
    dir_step,
    f_of,
    five_initial,
    rot_bundle,
    rot_closed,
    rot_counts,
    schreier_bundle,
    schreier_closed_value,
)
from fractal_forest.stats import (
    label_mean_gf,
    label_stat_closed,
    label_variance_gf,
    normality_gap,
)

from conftest import positive_weight_list, random_states, schur_denominator

ONES = Weights.ones()
A, B, C = TriPoly.variables()


def report(number, name, ok):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def test_criterion_1_rotational_complexity():
    start = time.time()
    checks = []
    g1 = build_sierpinski(1, "rotational")
    four_ways = {
        "oracle": enumerate_gf(g1, ForestSpec("tree")).evaluate(ONES),
        "closed": rot_closed(1).T.evaluate(ONES),
        "recursion": rot_bundle(1, ONES).T,
        "cofactor": tree_gf_cofactor(g1, ONES),
    }
    checks.append(set(four_ways.values()) == {54})
    g2 = build_sierpinski(2, "rotational")
    three_ways = {
        rot_closed(2).T.evaluate(ONES),
        rot_bundle(2, ONES).T,
        tree_gf_cofactor(g2, ONES),
    }
    checks.append(three_ways == {524880})
    checks.append(rot_bundle(3, ONES).T == rot_closed(3).T.evaluate(ONES))
    elapsed = time.time() - start
    checks.append(elapsed < 10)
    report(1, "rotational complexity 54 / 524880 / level-3", all(checks))


def test_criterion_2_rotational_forests():
    g1 = build_sierpinski(1, "rotational")
    s_oracle = enumerate_gf(g1, ForestSpec("two-forest", isolated="top")).evaluate(ONES)
    q_oracle = enumerate_gf(g1, ForestSpec("three-forest")).evaluate(ONES)
    counts = rot_counts(1)
    ok = s_oracle == counts.s == 30 and q_oracle == counts.q == 50
    report(2, "rotational forests s=30 q=50", ok)


def test_criterion_3_hanoi_counts():
    start = time.time()
    checks = [hanoi_counts_recursive(n) == hanoi_counts_closed(n) for n in range(1, 9)]
    g1, g2, g3 = build_hanoi(1), build_hanoi(2), build_hanoi(3)
    checks.append(enumerate_gf(g1, ForestSpec("tree")).evaluate(ONES) == 3)
    checks.append(tree_gf_cofactor(g1, ONES) == 3)
    checks.append(enumerate_gf(g2, ForestSpec("tree")).evaluate(ONES) == 135)
    checks.append(tree_gf_cofactor(g2, ONES) == 135)
    tau3 = 3**8 * 5**5
    checks.append(tree_gf_cofactor(g3, ONES) == tau3)
    checks.append(schur_pipeline(3, ONES)[0] == tau3)
    elapsed = time.time() - start
    checks.append(elapsed < 30)
    report(3, "hanoi counts to level 8, oracle/cofactor/schur spot checks", all(checks))


def test_criterion_4_weighted_cross_method():
    weights = positive_weight_list(20250809, 10)
    checks = []
    graphs = {3: build_hanoi(3), 4: build_hanoi(4)}
    for n in (3, 4):
        for w in weights:
            t_rec = hanoi_bundle(n, w).T
            checks.append(t_rec == schur_pipeline(n, w)[0])
            checks.append(t_rec == tree_gf_cofactor(graphs[n], w))
    for w in weights:
        s0 = SchurState.initial(w)
        lhs = _sparse_det(lambda_matrix(3, s0))
        rhs = schur_denominator(s0) ** 3 * _sparse_det(lambda_matrix(2, schur_map(s0)))
        checks.append(lhs == rhs)
    report(4, "weighted recursion = schur = cofactor, decimation identity", all(checks))


def test_criterion_5_directional_and_schreier():
    checks = []
    weights = positive_weight_list(777, 20)
    for n in range(1, 5):
        for w in weights:
            b = dir_bundle(n, w)
            c = dir_closed_value(n, w)
            checks.append((b.T, b.U, b.R, b.L, b.Q) == (c.T, c.U, c.R, c.L, c.Q))
            b = schreier_bundle(n, w)
            c = schreier_closed_value(n, w)
            checks.append((b.T, b.U, b.R, b.L, b.Q) == (c.T, c.U, c.R, c.L, c.Q))
    for n in range(1, 5):
        rot_t = rot_bundle(n, ONES).T
        checks.append(dir_bundle(n + 1, ONES).T == rot_t)
        checks.append(schreier_bundle(n + 1, ONES).T == rot_t)
    init = five_initial()
    checks.append((init.U, init.R, init.L) == (B, A, C))
    checks.append(dir_step(five_initial()).Q == 2 * f_of(A, B, C))
    report(5, "directional/schreier closed forms and level shift", all(checks))


def test_criterion_6_growth_constants():
    rot_target = math.log(2) / 3 + math.log(3) / 2 + math.log(5) / 6
    hanoi_target = (math.log(3) + math.log(5)) / 4
    log_tau_rot6 = float(rot_closed(6).T.log_evaluate(ONES))
    tau_sigma6 = hanoi_counts_closed(6).tau
    with mpmath.workdps(60):
        log_tau_hanoi6 = float(mpmath.log(mpmath.mpf(tau_sigma6)))
    ok = (
        abs(log_tau_rot6 / 1095 - rot_target) < 0.01
        and abs(log_tau_hanoi6 / 729 - hanoi_target) < 0.01
        and abs(rot_target - 1.048603) < 0.001
        and abs(hanoi_target - 0.677003) < 0.001
    )
    report(6, "growth constants at level 6", ok)


def test_criterion_7_statistics():
    checks = []
    model = "sierpinski-rotational"
    for n in range(1, 7):
        for label in "abc":
            closed = label_stat_closed(n, label)
            checks.append(label_mean_gf(model, n, label) == closed.mean)
            checks.append(label_variance_gf(model, n, label) == closed.variance)
        total = sum(label_mean_gf(model, n, label) for label in "abc")
        checks.append(total == Fraction(3 * (3**n + 1), 2) - 1)
    checks.append(label_stat_closed(1, "c").mean == Fraction(4, 3))
    checks.append(label_stat_closed(1, "c").variance == Fraction(4, 9))
    checks.append(label_stat_closed(1, "a").mean == Fraction(11, 6))
    checks.append(label_stat_closed(1, "a").variance == Fraction(25, 36))
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    gaps = [normality_gap(n, grid) for n in (4, 8, 12)]
    checks.append(gaps[-1] < 0.05)
    checks.append(gaps[0] >= gaps[1] >= gaps[2])
    report(7, "statistics closed = log-derivative, normality gap", all(checks))


def test_criterion_8_transcription_guard():
    divergences = {}
    for s in random_states(4242, 10):
        div = schur_map_divergence(s)
        if div:
            divergences[tuple(s)] = div
    if divergences:
        print(f"  divergent coordinates: {divergences}")
    report(8, "decimation map equals its rederivation", not divergences)
