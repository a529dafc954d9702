import hashlib
import random
from fractions import Fraction

import pytest

from fractal_forest import kirchhoff
from fractal_forest.algebra import Weights, clear_denominators
from fractal_forest.errors import DecimationSingularError
from fractal_forest.families import COFACTOR_VERTEX_CAP, FAMILIES, HANOI, ROUTES, Level
from fractal_forest.graphs import (
    LABELS, LabelledEdge, LabelledGraph, apply_generator, build_hanoi, build_sierpinski,
)
from fractal_forest.hanoi import hanoi_bundle, hanoi_counts_closed
from fractal_forest.kirchhoff import (
    _sparse_det,
    SchurState,
    decimation_identity,
    lambda_matrix,
    schur_map,
    schur_map_divergence,
    schur_pipeline,
    tree_gf_cofactor,
)
from fractal_forest.oracle import ForestSpec, enumerate_gf
from fractal_forest.sierpinski import rot_counts

from conftest import (
    SINGULAR_STATE, Counted, _det, positive_weight_list, random_states, reference_lambda,
    reference_map_rederived, reference_rederived, reference_sparse_det,
    reference_state_network, schur_denominator, sparse,
)

ONES = Weights.ones()


def test_bareiss_determinant_basics():
    assert _sparse_det(sparse([[Fraction(1, 2), 1], [1, Fraction(3)]])) == Fraction(1, 2)
    assert _sparse_det(sparse([[1, 2], [2, 4]])) == 0
    assert _sparse_det(sparse([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == -1


def laplace_det(rows) -> Fraction:
    """Reference determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        ((-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
         for j, x in enumerate(rows[0]) if x),
        Fraction(0),
    )


def random_sparse_matrices(seed: int, count: int):
    """Seeded n x n matrices, n = 1..6, with about 40% nonzero entries.

    In turn: as drawn, with a zero diagonal, a permutation matrix, and
    with one row a combination of two others (a zero row when n < 3)."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             if rng.random() < 0.4 else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        shape = k % 4
        if shape == 1:
            for i in range(n):
                rows[i][i] = Fraction(0)
        elif shape == 2:
            perm = rng.sample(range(n), n)
            rows = [[Fraction(int(j == perm[i])) for j in range(n)] for i in range(n)]
        elif shape == 3:
            i, *others = rng.sample(range(n), n)
            rows[i] = [Fraction(0)] * n
            if len(others) >= 2:
                p, q = Fraction(rng.randint(1, 3), 2), Fraction(-rng.randint(1, 3), 5)
                rows[i] = [p * x + q * y for x, y in zip(rows[others[0]], rows[others[1]])]
        yield shape, rows


def test_det_matches_laplace_expansion():
    kinds = ("invertible, zero diagonal", "permutation", "odd permutation", "singular",
             "other invertible")
    seen = dict.fromkeys(kinds, 0)
    for shape, rows in random_sparse_matrices(67, 400):
        ref = laplace_det(rows)
        assert _sparse_det(sparse(rows)) == ref, rows
        seen["invertible, zero diagonal"] += ref != 0 and not any(
            rows[i][i] for i in range(len(rows))
        )
        seen["permutation"] += shape == 2
        seen["odd permutation"] += shape == 2 and ref == -1
        seen["singular"] += ref == 0
        seen["other invertible"] += shape != 2 and ref != 0
    assert all(count >= 20 for count in seen.values()), seen


def weighted_laplacian(g: LabelledGraph, w: Weights) -> list:
    """Dense loop-stripped weighted Laplacian in the graph's canonical
    order, written straight from its edges."""
    n = len(g.vertices)
    rows = [[0] * n for _ in range(n)]
    for e in g.nonloop_edges():
        x = getattr(w, e.label)
        rows[e.u][e.u] += x
        rows[e.v][e.v] += x
        rows[e.u][e.v] -= x
        rows[e.v][e.u] -= x
    return rows


def test_laplacian_examples():
    L = weighted_laplacian(build_hanoi(1), ONES)
    assert L == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    L123 = weighted_laplacian(build_hanoi(1), Weights.of(1, 2, 3))
    assert L123[0][0] == 3  # vertex 0 carries the a and b edges
    assert all(sum(row) == 0 for row in L123)
    degrees = [
        weighted_laplacian(build_sierpinski(1, "rotational"), ONES)[i][i]
        for i in range(6)
    ]
    assert degrees == [2, 4, 4, 2, 4, 2]
    disconnected = LabelledGraph(
        "hanoi", 1, ("0", "1", "2"), (LabelledEdge(0, 1, "a"),), {"top": 1, "left": 0, "right": 2}
    )
    assert not disconnected.is_connected_ignoring_loops()
    for index in (0, 2):
        with pytest.raises(ValueError):
            tree_gf_cofactor(disconnected, ONES, index)


def test_cofactor_examples():
    g1 = build_hanoi(1)
    assert tree_gf_cofactor(g1, ONES) == 3
    for w in positive_weight_list(51, 5):
        assert tree_gf_cofactor(g1, w) == w.a * w.b + w.a * w.c + w.b * w.c
    assert tree_gf_cofactor(build_sierpinski(1, "rotational"), ONES) == 54
    single = LabelledGraph("hanoi", 1, ("0",), (), {"top": 0, "left": 0, "right": 0})
    assert tree_gf_cofactor(single, ONES) == 1


def test_cofactor_invariant_under_index_choice(monkeypatch):
    for g in (build_hanoi(2), build_sierpinski(1, "rotational")):
        for w in positive_weight_list(53, 5):
            ref = tree_gf_cofactor(g, w, index=0)
            for i in range(1, len(g.vertices)):
                assert tree_gf_cofactor(g, w, index=i) == ref
    # an index that is no vertex is refused before any plan is built
    def refuse(*args):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(kirchhoff, "cofactor_template", refuse)
    for index in (-1, 9, 10):
        with pytest.raises(ValueError, match=rf"index {index} .* 9 vertices"):
            tree_gf_cofactor(build_hanoi(2), ONES, index)


# tree_gf_cofactor at 0 0 0, 1 -1 1, 0 1 1 and 1 1 -2, which force zero
# diagonal and off-diagonal pivots, and the sha256 of its value at
# 13/61 44/17 7/90
DEGENERATE_WEIGHTS = ("0 0 0", "1 -1 1", "0 1 1", "1 1 -2")
COFACTOR_PINS = (
    (build_hanoi, (3,), ("0", "1", "1", "-2539107"),
     "3269695c45fda2fb7d137adb25b791898795f2a4e1924ff29a845ebc36497b16"),
    (build_sierpinski, (3, "rotational"), ("0", "0", "134369280", "329054259605667840"),
     "4e6e5f3a92e8ed1e86ce7c9294648e3932e1116c5b79f2ee604f5c278be286c5"),
    (build_sierpinski, (4, "directional"), ("0", "8192", "768368640", "0"),
     "e57e4ba4d86f59b120567e99941dc90160f0432fa504dd3ef85070684ad67ead"),
    (build_sierpinski, (4, "schreier"), ("0", "-8192", "566231040", "0"),
     "de8585f0690b245c5323069ce30f963e47cc4200cb83618fe9cb9cc0c8113fa5"),
)


def test_cofactor_pinned_at_degenerate_weights():
    for build, args, values, digest in COFACTOR_PINS:
        g = build(*args)
        for text, value in zip(DEGENERATE_WEIGHTS, values):
            assert str(tree_gf_cofactor(g, Weights.parse(*text.split()))) == value, (args, text)
        generic = tree_gf_cofactor(g, Weights.parse("13/61", "44/17", "7/90"))
        assert hashlib.sha256(str(generic).encode()).hexdigest() == digest, args


def test_cofactor_past_the_cli_cap():
    # hanoi-5 has 243 vertices, past the CLI's cofactor cap of 130
    w = Weights.of(Fraction(1, 3), Fraction(2, 7), 5)
    assert tree_gf_cofactor(build_hanoi(5), w) == hanoi_bundle(5, w).T


def test_all_ones_cofactor_equals_closed_counts():
    for n in range(1, 5):
        assert tree_gf_cofactor(build_hanoi(n), ONES) == hanoi_counts_closed(n).tau
    for n in range(1, 4):
        assert tree_gf_cofactor(build_sierpinski(n, "rotational"), ONES) == rot_counts(n).tau


def generator_matrices(k: int, w: Weights):
    """Dense action matrices of the three generators on level k (3^k each),
    read off the hanoi graph with its loops."""
    g = build_hanoi(k, include_loops=True)
    n = len(g.vertices)
    mats = {label: [[Fraction(0)] * n for _ in range(n)] for label in LABELS}
    for e in g.edges:
        mats[e.label][e.u][e.v] = mats[e.label][e.v][e.u] = getattr(w, e.label)
    return tuple(mats[label] for label in LABELS)


def test_generator_matrices_match_action():
    for n in range(1, 5):
        w = Weights.of(2, 3, 5)
        A, B, C = generator_matrices(n, w)
        g = build_hanoi(n, include_loops=True)
        words = g.vertices
        index = {v: i for i, v in enumerate(words)}

        for mat, label, weight in ((A, "a", w.a), (B, "b", w.b), (C, "c", w.c)):
            for i, word in enumerate(words):
                j = index[apply_generator(label, word)]
                for k in range(len(words)):
                    assert mat[i][k] == (weight if k == j else 0)


def test_denominator_at_initial_ones_state():
    s0 = SchurState.initial(ONES)
    assert schur_denominator(s0) == 320
    assert reference_rederived(s0)[1] == 320


def test_map_fixes_first_three_coordinates():
    for s in random_states(57, 5):
        p = schur_map(s)
        assert (p.x1, p.x2, p.x3) == (s.x1, s.x2, s.x3)


def test_map_equals_rederived_on_random_states():
    for s in random_states(59, 10):
        assert schur_map_divergence(s) == {}
        assert schur_map(s) == reference_map_rederived(s)
        assert schur_denominator(s) == reference_rederived(s)[1]


def test_lambda2_structure_at_initial_state():
    s0 = SchurState.initial(ONES)
    lam = lambda_matrix(2, s0)
    assert lam[0] == {0: 2}
    assert all(0 not in lam[i] for i in range(1, 9))
    # masked matrix equals the Laplacian away from the first row/column
    L = weighted_laplacian(build_hanoi(2), ONES)
    for i in range(1, 9):
        for j in range(1, 9):
            assert lam[i].get(j, 0) == L[i][j]
    assert _sparse_det(lam) == 2 * 135
    # block pattern: generator matrices on the diagonal blocks
    w123 = Weights.of(1, 2, 3)
    s = SchurState.initial(w123)
    lam = lambda_matrix(2, s)
    A1, B1, C1 = generator_matrices(1, w123)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert lam[i].get(j, 0) == -C1[i][j]
                assert lam[3 + i].get(3 + j, 0) == -B1[i][j]
                assert lam[6 + i].get(6 + j, 0) == -A1[i][j]


def test_decimation_identity_on_weight_orbits():
    for w in positive_weight_list(61, 10):
        s0 = SchurState.initial(w)
        lhs = _sparse_det(lambda_matrix(3, s0))
        rhs = schur_denominator(s0) ** 3 * _sparse_det(lambda_matrix(2, schur_map(s0)))
        assert lhs == rhs


def test_decimation_identity_on_generic_states():
    for k, seed in ((3, 63), (4, 65)):
        for s in random_states(seed, 2):
            lhs = _sparse_det(lambda_matrix(k, s))
            rhs = schur_denominator(s) ** (3 ** (k - 2)) * _sparse_det(
                lambda_matrix(k - 1, schur_map(s)))
            assert lhs == rhs


def test_schur_pipeline_examples():
    assert schur_pipeline(3, ONES)[0] == 20503125
    assert schur_pipeline(4, ONES)[0] == 3**22 * 5**18
    w = Weights.of(1, 2, 3)
    assert schur_pipeline(3, w)[0] == hanoi_bundle(3, w).T
    value, orbit = schur_pipeline(3, ONES)
    assert value == 20503125 and orbit == [320]
    # below level 3 the gf schur route is the cofactor on the level's graph
    assert _schur_route(1, ONES) == (3, [])
    assert _schur_route(2, Weights.of(1, 2, 3)) == (hanoi_bundle(2, Weights.of(1, 2, 3)).T, [])


def _schur_route(n, w):
    """The gf schur route's value at level n and weights w, and the
    denominator orbit it leaves on its Level."""
    lv = Level(HANOI, n)
    return ROUTES["schur"](lv, w), lv.orbit


def test_pipeline_refuses_levels_below_3():
    for n in (1, 2):
        for w in (ONES, Weights.of(1, 2, 3)):
            with pytest.raises(ValueError, match="the decimation runs from level 3"):
                schur_pipeline(n, w)


def test_pipeline_value_is_an_int_at_every_level():
    # below level 3 the gf route is the cofactor, which returns a Fraction
    for w in (ONES, Weights.of(1, 2, 3), Weights.parse("13/61", "44/17", "7/90").clear_denominators()[0]):
        for n in range(1, 6):
            value, _ = (schur_pipeline if n >= 3 else _schur_route)(n, w)
            assert value == hanoi_bundle(n, w).T, (w, n)
            assert type(value) is int if n >= 3 else value.denominator == 1, (w, n)


def test_pipeline_orbit_is_the_public_denominator_and_map():
    # the pipeline clears each state and evaluates D once per step, shared
    # between its orbit and the map; both equal the public functions
    for w in (ONES, Weights.of(1, 2, 3), Weights.parse("13/61", "44/17", "7/90")):
        value, orbit = schur_pipeline(6, w)
        state, expected = SchurState.initial(w), []
        for _ in range(4):
            expected.append(schur_denominator(state))
            state = schur_map(state)
        assert orbit == expected, w
        assert value == hanoi_bundle(6, w).T
    with pytest.raises(DecimationSingularError, match="vanished at decimation step 0"):
        schur_pipeline(3, Weights.of(0, 0, 0))


def test_lambda2_determinant_ties_the_tables_together():
    # det Lambda_2(s) = (x1 + x2) D(s) ((x8' - x2)(x9' - x1) - x6'^2) with
    # s' = P(s): D and the x6, x8 and x9 tables against a determinant,
    # independently of the rederived map
    for s in random_states(89, 6):
        p = schur_map(s)
        lhs = _sparse_det(lambda_matrix(2, s))
        assert lhs != 0
        assert lhs == (s.x1 + s.x2) * schur_denominator(s) * (
            (p.x8 - s.x2) * (p.x9 - s.x1) - p.x6**2)


def test_singular_denominator_raises():
    # with x4=x5=x6=0 the denominator factors as
    # (x9^2-x1^2)(x7^2-x3^2)(x8^2-x2^2); x9 = x1 kills it
    s = SchurState(*map(Fraction, [1, 2, 3, 0, 0, 0, 5, 7, 1]))
    assert schur_denominator(s) == 0
    with pytest.raises(DecimationSingularError):
        schur_map(s)
    assert reference_rederived(s)[1] == 0
    assert kirchhoff._rederive(clear_denominators(s)[0])[0] == 0


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of lambda_matrix(k, s) for k = 2, 3, 4, densified with x1 * 0,
# and of the map at two fixed generic states, where the table map and the
# rederived one agree; the second has negative coordinates
PINNED_STATES = (
    (
        (Fraction(3, 7), Fraction(5, 2), Fraction(11, 13), Fraction(2, 9), Fraction(17, 5),
         Fraction(4, 3), Fraction(19, 6), Fraction(23, 8), Fraction(29, 10)),
        (
            "af9087ee96442d645d915bc8f5b56ab9cdbae50f4365a6b60dcb95d99ce8d122",
            "47d4d2e0947b9c7818da099457422f15cf9913155503f0d2d9a41092defdaa68",
            "8aa7f88dc5dc43df72ea39974b5e774fc3f14ac0f1517745432c811e2c163aea",
        ),
        "626c0c838b1a93258759e610e4c208d2cab47667b2e9b5855ee80df5ce1e6360",
    ),
    (
        (2, Fraction(1, 3), 5, Fraction(-7, 4), Fraction(6, 11), Fraction(13, 2), 9,
         Fraction(-1, 5), Fraction(31, 7)),
        (
            "d31a73a0011ab8658691b2b0a75a94a0c645e787ef4bb43205047301b8147fef",
            "0448da311404f85ed3a5ebcecf5b64f2dec9fdc39d1596e2046fee09a804931e",
            "bbe32eb4b10a2a2f069ba207a57f0c40451c00db02ab6977bd6e5ff91f04ea25",
        ),
        "9fde8d98bd8e5a993966bb70a9bea09a01563ef55b570a9aacf7e4f94fcdb94e",
    ),
)


def test_decimation_matrices_pinned():
    for values, lambda_digests, map_digest in PINNED_STATES:
        s = SchurState(*map(Fraction, values))
        for k, digest in enumerate(lambda_digests, start=2):
            rows = lambda_matrix(k, s)
            dense = [[row.get(j, s.x1 * 0) for j in range(len(rows))] for row in rows.values()]
            assert sha256(dense) == digest, (values, k)
        assert sha256(tuple(schur_map(s))) == map_digest, values
        assert schur_map_divergence(s) == {}, values


def held(rows: dict):
    """Rows as held: each key with its entries, in the order given, and
    each entry with its type."""
    return [(i, [(j, type(x), x) for j, x in row.items()]) for i, row in rows.items()]


def test_sparse_builders_hand_the_kernel_the_dense_rows():
    # lambda and the level-2 network, built sparse, are the dense matrices
    # with their zeros dropped, rows and columns in index order, so the
    # kernel pivots as it did on the dense ones; at Fraction states and at
    # the same states cleared to integers, as the map guards build them
    rng = random.Random(97)
    states = [SchurState(*map(Fraction, values)) for values, _, _ in PINNED_STATES]
    states += [SchurState(*(Fraction(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(9)))
               for _ in range(400)]
    # the diagonal of word 2..2 is x9 less its loop x1, which cancels here
    assert all(3**k - 1 not in lambda_matrix(k, SINGULAR_STATE)[3**k - 1] for k in (2, 3))
    opposite = SchurState(*map(Fraction, (2, -2, 3, 5, 7, 11, 13, 17, 19)))  # x1 + x2 = 0
    for k in (2, 3):
        assert lambda_matrix(k, opposite)[0] == {} and _sparse_det(lambda_matrix(k, opposite)) == 0
    states += [SINGULAR_STATE, opposite]
    assert any(x < 0 for s in states for x in s) and any(x == 0 for s in states for x in s)
    for s in states:
        for state in (s, SchurState(*clear_denominators(s)[0])):
            for k in (2, 3):
                want = held(sparse(reference_lambda(k, state)))
                assert held(lambda_matrix(k, state)) == want, (state, k)
            want = held(sparse(reference_state_network(2, state, False)))
            network = kirchhoff._network(2, False, False, kirchhoff._CORNERS)
            assert held(network.rows(state)) == want, state


def test_rederived_map_matches_the_seven_determinant_reference():
    # the one fraction-free elimination against the inner 6x6 and the six
    # bordered 7x7 determinants taken one by one, at signed random states,
    # the pinned states, and a state whose first inner pivot (the diagonal
    # entry x7 of word 01) is 0 while the inner block is not singular
    rng = random.Random(67)
    states = []
    while len(states) < 200:
        s = SchurState(*(Fraction(rng.randint(-97, 97), rng.randint(1, 97)) for _ in range(9)))
        if reference_rederived(s)[1] != 0:
            states.append(s)
    assert any(x < 0 for s in states for x in s)
    states += [SchurState(*map(Fraction, values)) for values, _, _ in PINNED_STATES]
    swapped = SchurState(*map(Fraction, (1, 2, 3, 4, 5, 6, 0, 7, 8)))
    rows, inner = reference_rederived(swapped)
    assert rows[1][1] == 0 and inner != 0
    states.append(swapped)
    for s in states:
        assert schur_map(s) == reference_map_rederived(s), s
        assert schur_map_divergence(s) == {}, s


def test_decimation_identity_on_cleared_states_matches_the_fraction_form(monkeypatch):
    # the identity in integers on t = delta s gives the verdict of
    # det lambda_3(s) = D(s)^3 det lambda_2(P(s)) in Fractions: true under
    # the paper's tables, false with one coefficient of P5 off by one
    def fraction_form(s):
        d = schur_denominator(s)
        lhs = _sparse_det(lambda_matrix(3, s))
        return lhs == d**3 * _sparse_det(lambda_matrix(2, schur_map(s)))

    states = random_states(69, 50)
    for s in states[:25]:
        assert decimation_identity(s) is fraction_form(s) is True
    tables = dict(kirchhoff._map_tables())
    terms = tables[5][0]
    (coeff, exps), *rest = terms
    tables[5] = terms, kirchhoff._compile(kirchhoff._horner(((coeff + 1, exps), *rest)))
    monkeypatch.setattr(kirchhoff, "_map_tables", lambda: tables)
    for s in states[25:]:
        assert decimation_identity(s) is fraction_form(s) is False


def test_decimation_identity_holds_where_d_vanishes():
    # the identity in integers is one of polynomials, so it holds at the
    # states where D, and with it P, vanishes
    rng = random.Random(71)
    states = [SINGULAR_STATE]
    for _ in range(20):
        s = SchurState.random(rng)
        states.append(s._replace(x4=Fraction(0), x5=Fraction(0), x6=Fraction(0), x9=s.x1))
    for s in states:
        assert schur_denominator(s) == 0
        assert decimation_identity(s) is True, s


def test_lambda_matrix_validates_level():
    with pytest.raises(ValueError):
        lambda_matrix(1, SchurState.initial(ONES))


RATIONAL_TRIPLES = (
    Weights.parse("1/3", "2/7", "5"),
    Weights.parse("13/61", "44/17", "7/90"),
    Weights.parse("-1/2", "3/4", "5/6"),
)


def test_sparse_det_exact_on_integer_entries():
    # the kernel divides integer entries as fractions, never as floats
    for _shape, rows in random_sparse_matrices(71, 200):
        ints = [clear_denominators(row)[0] for row in rows]
        det = _sparse_det(sparse(ints))
        assert isinstance(det, Fraction) and det == laplace_det(ints), ints


def test_sparse_det_keeps_rows_as_their_schur_complement():
    # with kept keys the kernel returns the determinant of the block it
    # eliminates, and the kept rows as the Schur complement on them: each
    # entry the determinant bordered by its row and column over the block's
    rng = random.Random(73)
    singular = 0
    for _shape, fracs in random_sparse_matrices(73, 200):
        n = len(fracs)
        for rows in (fracs, [clear_denominators(row)[0] for row in fracs]):
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            inner = [i for i in range(n) if i not in keep]
            det, kept = _sparse_det(sparse(rows), frozenset(keep))
            block = _det(rows, inner, inner)
            assert isinstance(det, Fraction) and det == block, (rows, keep)
            if block == 0:
                singular += 1
                continue
            for k in keep:
                row, d = kept[k]
                assert set(row) <= set(keep) and type(d) is int and d > 0
                for j in keep:
                    bordered = _det(rows, inner + [k], inner + [j])
                    assert Fraction(row.get(j, 0), d) == bordered / block, (rows, keep, k, j)
    assert 0 < singular < 400


def test_sparse_det_with_no_kept_keys_is_the_determinant():
    for _shape, rows in random_sparse_matrices(75, 100):
        assert _sparse_det(sparse(rows), frozenset()) == _sparse_det(sparse(rows)) == laplace_det(rows)


def test_sparse_det_returns_0_for_a_singular_eliminated_block():
    # inner rows 0 and 1 are dependent: once row 0 is pivoted on, row 1
    # has an entry only in the kept column 2; the full matrix is regular
    rows = [[1, 2, 5], [2, 4, 1], [3, 1, 1]]
    assert laplace_det(rows) != 0 == _det(rows, (0, 1), (0, 1))
    det, _ = _sparse_det(sparse(rows), {2})
    assert det == 0
    # an inner row with no entry but in the kept column
    det, _ = _sparse_det(sparse([[0, 0, 3], [0, 2, 1], [4, 1, 1]]), {2})
    assert det == 0


def assert_same_elimination(rows: dict, keep=()):
    """The kernel and its reference (``conftest.reference_sparse_det``)
    on copies of the rows: the same determinant and, where it is nonzero,
    the same kept rows as rationals; the rows are left as given, and the
    kernel's plan pivots as the rule replayed on the pattern."""
    given = {i: dict(row) for i, row in rows.items()}
    got = _sparse_det(rows, keep)
    want = reference_sparse_det({i: dict(row) for i, row in rows.items()}, keep)
    assert rows == given
    (got, got_kept), (want, want_kept) = (got, want) if keep else ((got, {}), (want, {}))
    assert type(got) is Fraction and got == want, (rows, keep)
    for k in keep if got else ():
        (row, d), (ref_row, ref_d) = got_kept[k], want_kept[k]
        assert type(d) is int and d > 0 and all(type(x) is int for x in row.values())
        assert {j: Fraction(x, d) for j, x in row.items()} == {
            j: Fraction(x, ref_d) for j, x in ref_row.items()}, (rows, keep, k)
    pattern = {i: list(row) for i, row in rows.items()}
    assert list(kirchhoff._plan(pattern, keep).pivots) == replay_elimination(pattern, keep)[1]
    return got


def random_kernel_inputs(seed: int, count: int):
    """Seeded sparse matrices of 1-12 rows, keyed in a shuffled order,
    about 30% nonzero signed entries, in turn all ints, all Fractions and
    mixed; one in five has an empty row, and each keeps 0-3 keys."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 12)
        kind = k % 3

        def entry():
            x = rng.choice((-1, 1)) * rng.randint(1, 9)
            if kind == 0 or (kind == 2 and rng.random() < 0.5):
                return x
            return Fraction(x, rng.randint(1, 9))

        keys = rng.sample(range(n), n)
        rows = {i: {j: entry() for j in keys if rng.random() < 0.3} for i in keys}
        if rng.random() < 0.2:
            rows[rng.choice(keys)] = {}
        yield rows, rng.sample(keys, min(n, rng.randint(0, 3)))


def test_sparse_det_pivots_as_the_scan_of_every_row():
    # the plan's pivot heap pops the row the scan found, and its replay
    # gives the reference's determinant and Schur complement
    seen = {"kept": 0, "empty row": 0, "singular": 0, "regular": 0}
    for rows, keep in random_kernel_inputs(83, 400):
        det = assert_same_elimination(rows, keep)
        seen["kept"] += bool(keep)
        seen["empty row"] += any(not row for row in rows.values())
        seen["singular" if det == 0 else "regular"] += 1
    assert all(count >= 40 for count in seen.values()), seen


def test_cofactor_minors_pivot_as_the_scan_of_every_row():
    # the Laplacian minor of every graph under the cofactor cap, as
    # tree_gf_cofactor hands it to the kernel
    for triple in (("1", "1", "1"), ("6", "9", "5"), ("13/61", "44/17", "7/90")):
        iw = Weights.parse(*triple).clear_denominators()[0]
        for family in FAMILIES.values():
            for n in range(1, 9):
                if family.vertices(n) > COFACTOR_VERTEX_CAP:
                    continue
                g = family.graph(n, False)
                rows = kirchhoff.cofactor_template(g).rows(iw)
                det = assert_same_elimination(rows)
                assert det == tree_gf_cofactor(g, iw), (family.name, n, triple)


def test_cofactor_at_fraction_weights_equals_the_kernel_on_the_fraction_minor():
    # the cofactor clears the weights once and divides by L^(|V| - 1); the
    # kernel on the Laplacian minor in Fractions clears each row instead
    for triple in (("1", "1", "1"), ("13/61", "44/17", "7/90"), ("-1/2", "0", "3/4")):
        w = Weights.parse(*triple)
        for family in FAMILIES.values():
            for n in range(1, 9):
                if family.vertices(n) > COFACTOR_VERTEX_CAP:
                    continue
                g = family.graph(n, False)
                rows = kirchhoff.cofactor_template(g).rows(w)
                value = tree_gf_cofactor(g, w)
                assert type(value) is Fraction and value == _sparse_det(rows), (family.name, n, w)


def test_routes_scale_homogeneously_at_cleared_weights():
    # T on |V| vertices has degree |V| - 1 and D has degree 6; at the
    # integer weights L*w every value is an integer, and no route returns
    # a float
    graphs = (
        build_hanoi(3), build_sierpinski(2, "rotational"),
        build_sierpinski(3, "directional"), build_sierpinski(3, "schreier"),
    )
    tiny = (build_hanoi(2), build_sierpinski(1, "rotational"), build_sierpinski(2, "schreier"))
    for w in RATIONAL_TRIPLES:
        iw, scale = w.clear_denominators()
        for g in graphs:
            value = tree_gf_cofactor(g, iw)
            assert isinstance(value, Fraction) and value.denominator == 1
            assert value == scale ** (len(g.vertices) - 1) * tree_gf_cofactor(g, w)
        for g in tiny:
            gf = enumerate_gf(g, ForestSpec("tree"))
            value = gf.evaluate(iw)
            assert type(value) is int
            assert value == scale ** (len(g.vertices) - 1) * gf.evaluate(w)
        for n in range(1, 7):
            pipeline = schur_pipeline if n >= 3 else _schur_route
            value, orbit = pipeline(n, iw)
            value_w, orbit_w = pipeline(n, w)
            assert type(value) is int if n >= 3 else value.denominator == 1
            assert value == scale ** (3**n - 1) * value_w == scale ** (3**n - 1) * hanoi_bundle(n, w).T
            assert len(orbit) == len(orbit_w) == max(n - 2, 0)
            for d, d_w in zip(orbit, orbit_w):
                assert isinstance(d, (int, Fraction)) and d == scale**6 * d_w


def test_map_terms_are_homogeneous():
    # schur_map evaluates the tables on the state times its common
    # denominator, which is exact only for these degrees
    tables = kirchhoff._map_tables()
    assert all(sum(exps) == 6 for _, exps in tables["D"][0])
    assert all(sum(exps) == 7 for i in range(4, 10) for _, exps in tables[i][0])


def test_sparse_det_rows_mixing_int_and_fraction_entries():
    rows = [
        [2, Fraction(1, 2), 0, -1],
        [Fraction(3), 1, Fraction(-2, 3), 0],
        [0, Fraction(5, 4), 7, Fraction(1, 6)],
        [1, 0, Fraction(9, 2), 4],
    ]
    assert _sparse_det(sparse(rows)) == laplace_det(rows) == reference_sparse_det(sparse(rows))
    rng = random.Random(73)
    for _shape, fracs in random_sparse_matrices(73, 200):
        # every other entry becomes an int where it is one
        mixed = [
            [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
            for row in fracs
        ]
        assert _sparse_det(sparse(mixed)) == laplace_det(fracs), mixed


def test_sparse_det_rows_with_different_denominators():
    rows = [
        [Fraction(1, 2), Fraction(1, 4), 0],
        [Fraction(2, 3), 0, Fraction(5, 9)],
        [0, Fraction(3, 5), Fraction(7, 25)],
    ]
    assert _sparse_det(sparse(rows)) == laplace_det(rows) == Fraction(-16, 75)
    primes = (2, 3, 5, 7, 11, 13)
    n = len(primes)
    rows = [
        [Fraction(1 + (i * j) % 4, p**(1 + j % 2)) if (i + j) % 3 else 0 for j in range(n)]
        for i, p in enumerate(primes)
    ]
    assert _sparse_det(sparse(rows)) == laplace_det(rows) != 0


def test_sparse_det_negative_pivots():
    # at positive weights every pivot of a negated Laplacian minor is
    # negative
    for w in RATIONAL_TRIPLES + (Weights.of(1, 2, 3),):
        rows = weighted_laplacian(build_hanoi(2), w)
        minor = [[-x for x in row[1:]] for row in rows[1:]]
        det = _sparse_det(sparse(minor))
        assert det == (-1) ** len(minor) * tree_gf_cofactor(build_hanoi(2), w)
        assert det == laplace_det(minor)
    rows = [[-3, 1, 0], [Fraction(-1, 2), -2, Fraction(1, 3)], [0, 4, Fraction(-5, 7)]]
    assert _sparse_det(sparse(rows)) == laplace_det(rows) == Fraction(-9, 14)


def test_sparse_det_row_cancelling_to_empty():
    # the short rows a and b are pivoted on first; their combination then
    # empties out while the two long rows are still live
    a = [Fraction(1, 2), 3, 0, 0, 0]
    b = [0, Fraction(-1, 5), 2, 0, 0]
    c = [1, 5, Fraction(1, 3), 1, Fraction(1, 2)]
    d = [2, 0, 7, Fraction(2, 9), 3]
    combo = [Fraction(2, 3) * x - Fraction(3, 4) * y for x, y in zip(a, b)]
    for rows in ([a, b, c, d, combo], [combo, c, a, d, b]):
        assert laplace_det(rows) == 0
        assert _sparse_det(sparse(rows)) == 0
        assert reference_sparse_det(sparse(rows)) == 0


def test_cofactor_equals_bundle_tree_under_the_vertex_cap():
    # the weight triples of the gf-desk benchmark, cleared to integers
    triples = (
        ("1", "1", "1"), ("6", "9", "5"), ("1", "1", "5"),
        ("1/3", "2/7", "5"), ("13/61", "44/17", "7/90"), ("72/80", "1/7", "84/20"),
        # degenerate: a zero weight drops entries and a negative one can
        # cancel them, but neither may change which rows are eliminated
        ("0", "1", "1"), ("1", "0", "0"), ("0", "0", "0"),
        ("1", "-1", "1"), ("1", "1", "-2"), ("-1/2", "3/4", "5/6"),
    )
    for family in FAMILIES.values():
        levels = [n for n in range(1, 9) if family.vertices(n) <= COFACTOR_VERTEX_CAP]
        assert levels
        for triple in triples:
            iw = Weights.parse(*triple).clear_denominators()[0]
            for n in levels:
                value = tree_gf_cofactor(family.graph(n, False), iw)
                assert value == Level(family, n).values(iw)[0], (family.name, n, triple)
                assert isinstance(value, Fraction) and value.denominator == 1


def replay_elimination(rows, keep=()):
    """The kernel's pivot rule replayed on the pattern of the rows alone,
    by a scan of every row, which is the kernel's order where nothing
    cancels: the shortest live row not kept first, the first given on a
    tie; in it the column not kept with the fewest live entries, the
    diagonal and then the row's own order on a tie; until a row has no
    such column.  Returns the number of entries the elimination creates
    and the pivots as (row, column) in the order taken."""
    rows = {i: dict.fromkeys(row) for i, row in rows.items()}
    holders = {j: set() for j in rows}
    for i, row in rows.items():
        for j in row:
            holders[j].add(i)
    live = dict.fromkeys(i for i in rows if i not in keep)
    fill = 0
    pivots = []
    while live:
        p = min(live, key=lambda i: len(rows[i]))
        row = rows[p]
        c = min((j for j in row if j not in keep), key=lambda j: (len(holders[j]), j != p),
                default=None)
        if c is None:
            break
        pivots.append((p, c))
        del live[p]
        for j in row:
            holders[j].discard(p)
        for i in holders[c]:
            target = rows[i]
            del target[c]
            for j in row:
                if j != c and j not in target:
                    target[j] = None
                    holders[j].add(i)
                    fill += 1
    return fill, pivots


def test_cofactor_rows_keep_the_fill_small():
    # the template's plan pivots as the rule replayed on its pattern, so
    # its fill is what the replayed pivots create there; the three
    # 123-vertex gaskets share one pattern, and in index order, as the
    # kernel took the rows before the sweep toward the deleted vertex,
    # they fill 674 entries
    bounds = {("hanoi", 4): (238, 238), ("sierpinski-rotational", 4): (360, 674),
              ("sierpinski-directional", 5): (360, 674), ("sierpinski-schreier", 5): (360, 674)}
    for (name, n), (bound, in_index_order) in bounds.items():
        plan = kirchhoff.cofactor_template(FAMILIES[name].graph(n, False)).plan
        pattern = dict(zip(plan.keys, plan.layouts))
        fill, pivots = replay_elimination(pattern)
        assert list(plan.pivots) == pivots, name
        assert fill <= bound, name
        assert replay_elimination(dict(sorted(pattern.items())))[0] == in_index_order, name


# weights of the planned cofactor: positive, where every pivot of the
# positive definite minor is positive, and degenerate, where a planned
# pivot can vanish and the live rows are planned again, after which a
# pivot 0 drops its row's zero entries; at 0 1 1 a zero weight makes
# entries 0 but the minor stays positive definite.  Each with the counts
# of plans again and of rows dropped over the 18 graphs
PLANNED_WEIGHTS = ("1 1 1", "2 3 5", "13/61 44/17 7/90")
REPLANNED_WEIGHTS = {"0 1 1": (0, 0), "1 -1 1": (18, 89), "-2 3 5": (4, 0), "1 -1 0": (14, 8),
                     "0 0 0": (18, 0)}


def counted_plans(monkeypatch) -> tuple:
    """Patch ``kirchhoff._steps`` to record the size of each pattern it
    plans, once or again, and the row of each step dropped for a pivot 0;
    returns both records."""
    steps = kirchhoff._steps
    planned, drops = [], []

    def counted(pattern, keep, pivots, dropped):
        planned.append(len(pattern))
        for step in steps(pattern, keep, pivots, dropped):
            yield step
            if step[0] in dropped:
                drops.append(step[0])

    monkeypatch.setattr(kirchhoff, "_steps", counted)
    return planned, drops


def test_planned_cofactor_equals_the_kernel_on_the_same_rows(monkeypatch):
    planned, drops = counted_plans(monkeypatch)
    counts = dict.fromkeys(PLANNED_WEIGHTS + tuple(REPLANNED_WEIGHTS), (0, 0))
    graphs = 0
    for family in FAMILIES.values():
        for n in range(1, 9):
            if family.vertices(n) > COFACTOR_VERTEX_CAP:
                continue
            graphs += 1
            g = family.graph(n, False)
            template = kirchhoff.cofactor_template(g)
            assert planned == [len(g.vertices) - 1]
            for text in counts:
                iw = Weights.parse(*text.split()).clear_denominators()[0]
                rows = template.rows(iw)
                # the template against the Laplacian written from the edges
                dense = weighted_laplacian(g, iw)
                assert rows == {i: {j: x for j, x in enumerate(row) if x and j}
                                for i, row in enumerate(dense) if i}, (family.name, n, text)
                planned.clear()
                drops.clear()
                value = template.det(iw)
                assert value == reference_sparse_det(rows), (family.name, n, text)
                replans, dropped = counts[text]
                counts[text] = replans + len(planned), dropped + len(drops)
            planned.clear()
    assert graphs == 18
    assert counts == dict.fromkeys(PLANNED_WEIGHTS, (0, 0)) | REPLANNED_WEIGHTS


def test_sparse_det_plans_again_at_a_zero_pivot(monkeypatch):
    # entries in -1, 1 and 2 at half density cancel often: where a planned
    # pivot comes out 0 the live rows are planned again, and the result is
    # the reference's, with and without kept keys
    planned, _ = counted_plans(monkeypatch)
    rng = random.Random(89)
    replans = kept = 0
    for k in range(1500):
        n = rng.randint(2, 9)
        rows = {i: {j: rng.choice((-1, 1, 2)) for j in range(n) if rng.random() < 0.5}
                for i in range(n)}
        keep = rng.sample(range(n), rng.randint(1, 2)) if k % 2 else ()
        planned.clear()
        det = assert_same_elimination(rows, keep)
        replans += len(planned) - 2  # the kernel's plan and the test's own
        kept += bool(keep and det)
    assert replans >= 100 and kept >= 100, (replans, kept)


# -- the tables as Horner schemes, compiled to kernels ---------------------------


def eval_terms(terms, xs):
    """A table evaluated term by term, as the map was before its Horner
    schemes."""
    total = 0
    for coeff, exps in terms:
        v = coeff
        for x, e in zip(xs, exps):
            if e:
                v *= x**e
        total += v
    return total


TABLES = tuple(kirchhoff._map_tables()[i] for i in ("D", 4, 5, 6, 7, 8, 9))


def test_horner_schemes_equal_the_terms():
    rng = random.Random(79)
    states = [[0] * 9, [1] * 9, [-1] * 9]
    states += [[rng.randint(-50, 50) for _ in range(9)] for _ in range(20)]
    states += [[rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(9)] for _ in range(20)]
    for xs in states:
        for terms, kernel in TABLES:
            assert kernel(*xs) == eval_terms(terms, xs), xs
    # the cleared states along the decimation orbit of level 9
    state = SchurState.initial(Weights.parse("13/61", "44/17", "7/90"))
    for _ in range(7):
        xs = clear_denominators(state)[0]
        for terms, kernel in TABLES:
            assert kernel(*xs) == eval_terms(terms, xs), xs
        state = schur_map(state)
    assert max(x.bit_length() for x in xs) > 3000


def test_horner_schemes_form_fewer_products():
    # products of two state-sized values over all seven kernels, which form
    # the products of their Horner schemes and no others; the products with
    # a coefficient are scalar and not counted
    tally = [0]
    xs = [Counted(x, tally) for x in (3, -5, 7, 11, -13, 17, 19, 23, -29)]
    for terms, kernel in TABLES:
        assert kernel(*xs).value == eval_terms(terms, [x.value for x in xs])
    assert tally[0] == 338
    tally[0] = 0
    for terms, _ in TABLES:
        eval_terms(terms, xs)
    assert tally[0] == 743
