import decimal
import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from fractal_forest import algebra
from fractal_forest.algebra import (
    FactoredPoly,
    Jet,
    Products,
    TriPoly,
    Weights,
    poly_equal_by_sampling,
    positive_weights,
    power_products,
    products_equal,
)
from fractal_forest.errors import CapabilityError
from fractal_forest.sierpinski import rot_closed

from conftest import derivative, full_size_products

A, B, C = TriPoly.variables()
ONES = Weights.ones()


def test_weights_parse_rationals_only():
    w = Weights.parse("3/7", "2", "1/2")
    assert w.a == Fraction(3, 7) and w.b == 2 and w.c == Fraction(1, 2)
    with pytest.raises(ValueError):
        Weights.parse("1.5", "1", "1")
    with pytest.raises(ValueError):
        Weights.parse("1/0", "1", "1")


def test_weights_read_by_position_like_any_tuple():
    w = Weights.parse("3/7", "2", "1/2")
    assert (w[0], w[1], w[-1]) == (w.a, w.b, w.c)
    assert w[1:] == (2, Fraction(1, 2)) and w[::-1] == (w.c, w.b, w.a)
    a, b, c = w
    assert (a, b, c) == tuple(w) == w
    with pytest.raises(IndexError):
        w[3]


def test_eval_examples():
    e = A * B + A * C + B * C
    assert e.evaluate(ONES) == 3
    t1 = 3 * (A + B) * e**2
    assert t1.evaluate(ONES) == 54
    factored = FactoredPoly({2: 1}, [(e, 2), (A + B + C, 1)])
    assert factored.evaluate(ONES) == 54


def test_derivative_examples():
    e = A * B + A * C + B * C
    assert derivative(e, "c") == A + B
    square = (2 * C + 1) ** 2
    assert derivative(square, "c") == 8 * C + 4
    t1 = 3 * (A + B) * e**2
    assert derivative(t1, "a").evaluate(ONES) == 99


def test_log_eval_examples():
    e = A * B + A * C + B * C
    v = FactoredPoly({2: 1}, [(e, 2), (A + B + C, 1)]).log_evaluate(ONES)
    with mpmath.workdps(60):
        assert abs(v - mpmath.log(54)) < mpmath.mpf(10) ** -30
    ratio = float(rot_closed(6).T.log_evaluate(ONES)) / 1095
    assert abs(ratio - 1.0453) < 2e-4
    with pytest.raises(ValueError):
        FactoredPoly(factors=[(e, 1)]).log_evaluate(Weights.of(-1, 1, 1))


def test_sampling_equality():
    p = (A + B) ** 2
    q = A**2 + 2 * A * B + B**2
    r = A**2 + A * B + B**2
    assert poly_equal_by_sampling(p, p, trials=5)
    assert poly_equal_by_sampling(p, q, trials=20)
    assert not poly_equal_by_sampling(p, r, trials=20)


def test_positive_weights_draw_sequence_pinned():
    # verify and the sampling identity test replay these draws by seed
    rng = random.Random(1729)
    assert positive_weights(rng) == Weights.of(14, Fraction(53, 65), Fraction(59, 22))
    draws = " ".join(str(positive_weights(rng)) for _ in range(1999))
    assert hashlib.sha256(f"(14,53/65,59/22) {draws}".encode()).hexdigest() == (
        "eaec7e30a5586aac245410e256c786008a3ac317d12c7897e8ed527260f2cc40"
    )


def test_ring_axioms_on_random_polys():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = rng.randint(-9, 9)
        return TriPoly(terms)

    for _ in range(25):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * TriPoly.const(1) == p
        assert p + TriPoly() == p


def test_factored_eval_matches_expansion():
    e = A * B + A * C + B * C
    f = FactoredPoly({2: 2, 3: 1, 5: 1}, [(e, 3), (A + B, 2)])
    expanded = f.expand()
    rng = random.Random(3)
    for _ in range(5):
        w = Weights(
            Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        )
        assert f.evaluate(w) == expanded.evaluate(w)
    with pytest.raises(CapabilityError):
        FactoredPoly(factors=[(e, 40)]).expand()


def test_power_products_share_powers_exactly():
    bases = [2, -3, 0, Fraction(5, 7), 1]
    rows = [[4, 3, 0, 2, 9], [5, 1, 0, 0, 9], [4, 2, 2, 3, 0], [0, 0, 0, 0, 0]]
    plain = []
    for row in rows:
        value = 1
        for base, exp in zip(bases, row):
            value *= base**exp  # 0**0 == 1
        plain.append(value)
    assert power_products(bases, rows) == plain
    assert plain[2] == 0 and plain[3] == 1
    # a Fraction base enters a product only with a positive exponent
    assert [type(v) for v in power_products(bases, rows)] == [Fraction, int, Fraction, int]
    assert power_products(bases, [rows[1]]) == [plain[1]]
    assert power_products([], [[], []]) == [1, 1]


def test_power_products_square_once_per_bit():
    # clock-free: one product of powers makes at most two products of its
    # own size per bit of its largest exponent, a squaring and one product
    # with the bases whose exponent has that bit set, however many bases
    rng = random.Random(5)
    for count in (1, 2, 3, 6, 12, 24):
        bases = [rng.randint(2, 2**16) for _ in range(count)]
        row = [rng.randint(0, 3**6) for _ in range(count)]
        row[0] = 3**6
        [value], full = full_size_products(bases, [row], power_products)
        plain = 1
        for base, exp in zip(bases, row):
            plain *= base**exp
        assert value == plain, count
        assert full <= 2 * (3**6).bit_length(), (count, full)


def test_factored_evaluate_all_equals_each_evaluate():
    e = A * B + A * C + B * C
    products = [
        FactoredPoly({2: 2, 3: 1}, [(e, 3), (A + B, 2)]),
        FactoredPoly({5: 1}, [(A + B, 1), (A + C, 4), (e, 1)]),
        FactoredPoly(),
    ]
    # Jets do not hash: values tells bases apart by identity
    for w in (ONES, Weights.of(0, 0, 0), Weights.of(1, -1, 1), Weights.parse("1/3", "2/7", "5"),
              Weights(Jet(1, 1), 2, 3)):
        # each distinct base evaluated once, so that the products share it
        at_w = {}
        for p in products:
            for base, _ in p.factors:
                at_w.setdefault(base, base.evaluate(w))
        values = FactoredPoly.values(
            [FactoredPoly(p.primes, [(at_w[base], exp) for base, exp in p.factors]) for p in products])
        assert values == [p.evaluate(w) for p in products] == [p.expand().evaluate(w) for p in products]
        assert [type(v) for v in values] == [type(p.evaluate(w)) for p in products]


def test_signed_products_are_the_fraction_products():
    # a base to a negative power enters the shared chain as its inverse
    products = [
        FactoredPoly({2: 1}, [(6, 3), (4, -1)]),  # an integral quotient, 108
        FactoredPoly(None, [(6, 1), (4, -1)]),  # a non-integral one, 3/2
        FactoredPoly({5: 2}, [(-3, 3), (2, -2)]),  # a negative base to an odd power
        FactoredPoly(None, [(-3, 2), (-2, -4)]),  # and to even powers
        FactoredPoly({3: 1}, [(-7, -1), (10, 2)]),
        FactoredPoly(None, [(0, 2), (7, -1)]),  # a zero base to a positive power
        FactoredPoly(),
    ]
    want = []
    for p in products:
        value = Fraction(2 ** p.primes[2] * 3 ** p.primes[3] * 5 ** p.primes[5])
        for base, exp in p.factors:
            value *= Fraction(base) ** exp
        want.append(value)
    assert want[:2] == [108, Fraction(3, 2)] and want[5] == 0
    assert [FactoredPoly.values([p])[0] for p in products] == want
    assert FactoredPoly.values(products) == want
    # one base object to a positive power in one product and to a negative
    # one in another, and to both in a third
    x = 10**30 + 7
    mixed = [FactoredPoly({2: 3}, [(x, 2), (6, 1)]), FactoredPoly(None, [(x, -1), (6, 2)]),
             FactoredPoly(None, [(x, 3), (6, -1), (x, -1)])]
    assert FactoredPoly.values(mixed) == [48 * x**2, Fraction(36, x), Fraction(x**2, 6)]


# -- products of powers compared unexpanded ----------------------------------
# ``products_equal`` against the materialized values, both ways round:
# "default", as shipped, division first and then the split; "none", the
# split alone on the raw exponents, so that it is tested also where
# division leaves nothing to split; "2", the split alone with the raw
# values in the other order, so that it meets its pairs another way round


def fp(*factors, primes=None) -> FactoredPoly:
    return FactoredPoly(primes, list(factors))


@pytest.fixture(params=["default", "none", "2"])
def steps(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(algebra, "_divide_through", dict)
    if request.param == "2":
        split = algebra._coprime
        monkeypatch.setattr(algebra, "_coprime", lambda exps: split(dict(reversed(exps.items()))))


def assert_compares_as_materialized(left, right):
    want = FactoredPoly.values(left) == FactoredPoly.values(right)
    assert products_equal(left, right) is want, ([p.text() for p in left], [q.text() for q in right])
    assert products_equal(right, left) is want
    assert (Products(left) == Products(right)) is want
    assert (Products(right) != Products(left)) is not want
    return want


def regroup(product: FactoredPoly, rng) -> FactoredPoly:
    """The same value as another product of powers: factors of one exponent
    merged, exponents split, even powers squared, primes moved in and out."""
    factors = [*product.factors, *((p, e) for p, e in product.primes.items() if e)]
    for _ in range(4 if factors else 0):
        rng.shuffle(factors)
        (x, e), rest = factors[0], factors[1:]
        move = rng.randrange(3)
        if move == 0 and rest and rest[0][1] == e:
            factors = [(x * rest[0][0], e), *rest[1:]]
        elif move == 1 and e > 1:
            k = rng.randint(1, e - 1)
            factors = [(x, k), (x, e - k), *rest]
        elif move == 2 and e % 2 == 0:
            factors = [(x * x, e // 2), *rest]
    return fp(*factors)


# bases that share factors in many ways: small composites, Mersenne primes
# and their products, a perfect power
POOL = [2, 3, 6, 10, 12, 15, 35, 77, 91, 143, 2**61 - 1, 3 * (2**61 - 1), 2**89 - 1,
        (2**61 - 1) * (2**89 - 1), 7**30, 10**40 + 1]


def test_products_equal_random_products_over_overlapping_bases(steps):
    rng = random.Random(19)
    equal = unequal = 0
    for _ in range(300):
        rows = rng.randint(1, 3)
        left = [fp(*((rng.choice(POOL), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))),
                   primes={p: rng.randint(0, 4) for p in (2, 3, 5)}) for _ in range(rows)]
        if rng.random() < 0.5:
            right = [regroup(p, rng) for p in left]
        else:
            right = [fp(*((rng.choice(POOL), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))))
                     for _ in range(rows)]
        if assert_compares_as_materialized(left, right):
            equal += 1
        else:
            unequal += 1
    assert equal > 100 and unequal > 100
    # signed exponent vectors: a base to a negative power is a denominator
    equal = unequal = 0
    for _ in range(200):
        rows = rng.randint(1, 3)
        left = [fp(*((rng.choice(POOL), rng.choice((-1, 1)) * rng.randint(1, 5))
                     for _ in range(rng.randint(0, 5))),
                   primes={p: rng.randint(0, 4) for p in (2, 3, 5)}) for _ in range(rows)]
        if rng.random() < 0.5:
            right = [regroup(p, rng) for p in left]
        else:
            right = [fp(*((rng.choice(POOL), rng.choice((-1, 1)) * rng.randint(1, 5))
                          for _ in range(rng.randint(0, 5)))) for _ in range(rows)]
        if assert_compares_as_materialized(left, right):
            equal += 1
        else:
            unequal += 1
    assert equal > 60 and unequal > 60


def test_products_equal_perfect_powers(steps):
    for e in (1, 2, 7, 3**5):
        assert assert_compares_as_materialized([fp((4, e))], [fp(primes={2: 2 * e})])
        assert assert_compares_as_materialized([fp((12, e))], [fp(primes={2: 2 * e, 3: e})])
        assert assert_compares_as_materialized([fp((12, e))], [fp((2, 2 * e), (3, e))])
        assert not assert_compares_as_materialized([fp((12, e))], [fp(primes={2: 2 * e, 3: e + 1})])
        assert not assert_compares_as_materialized([fp((8, e))], [fp((4, e))])
    # exponents far past what could be multiplied out: nothing is formed
    big = 3**200
    assert products_equal([fp((12, big), (36, big))], [fp((2, 4 * big), (3, 3 * big))])
    assert not products_equal([fp((12, big))], [fp((2, 2 * big), (3, big - 1))])


def test_products_equal_ones_zeros_and_signs(steps):
    cases = [
        ([fp((1, 7))], [fp()]),
        ([fp((-1, 2))], [fp()]),
        ([fp((-1, 3))], [fp()]),
        ([fp((0, 3))], [fp((0, 1), (5, 2))]),
        ([fp((0, 1))], [fp((1, 1))]),
        ([fp((0, 2), primes={2: 3})], [fp()]),
        ([fp((-2, 3))], [fp((2, 3))]),
        ([fp((-2, 2))], [fp((2, 2))]),
        ([fp((-1, 5), (3, 1))], [fp((-3, 1))]),
        ([fp((-6, 3), (-1, 1))], [fp((2, 3), (-3, 2), (3, 1))]),
        ([fp((-6, 3))], [fp((2, 3), (-3, 2), (3, 1))]),
        ([fp((0, 1)), fp((-5, 1))], [fp((0, 9)), fp((-5, 1))]),
        ([fp((0, 1)), fp((-5, 1))], [fp((0, 9)), fp((5, 1))]),
        ([fp((0, 1), (3, -1))], [fp((0, 2))]),
        ([fp((-2, -1))], [fp((-1, 1), (2, -1))]),
        ([fp((-2, -2))], [fp((2, -2))]),
        ([fp((-2, -3))], [fp((2, -3))]),
        ([fp((-6, -1), (3, 1))], [fp((-2, -1))]),
    ]
    for left, right in cases:
        assert_compares_as_materialized(left, right)


def test_products_equal_with_a_base_shared_by_several_rows(steps):
    x = 3**50 * (2**61 - 1)
    y = x * x
    left = [fp((x, 2)), fp((x, 3)), fp((x, 1), primes={5: 1})]
    assert assert_compares_as_materialized(left, [fp((y, 1)), fp((x, 1), (y, 1)), fp((5 * x, 1))])
    assert not assert_compares_as_materialized(left, [fp((y, 1)), fp((y, 1)), fp((5 * x, 1))])


def test_products_equal_swapped_and_shifted_exponents(steps):
    p, q = 2**61 - 1, 2**89 - 1
    for a, b in ((1, 2), (3, 7), (5, 5)):
        assert assert_compares_as_materialized([fp((p, a), (q, b))], [fp((p, b), (q, a))]) is (a == b)
        assert assert_compares_as_materialized([fp((p * q, a), (q, b))], [fp((p, a), (q, a + b))])
    # pairs that differ by one exponent, in every position
    rng = random.Random(23)
    bases = [6, 10, 15, p, 3 * q, p * q]
    for _ in range(40):
        exps = [rng.randint(1, 6) for _ in bases]
        left = [fp(*zip(bases, exps), primes={2: 1, 3: 2, 5: 3})]
        i = rng.randrange(len(bases))
        shifted = [e + (j == i) * rng.choice((-1, 1)) for j, e in enumerate(exps)]
        right = [fp(*zip(bases, shifted), primes={2: 1, 3: 2, 5: 3})]
        assert not assert_compares_as_materialized(left, right)
        right = [fp(*zip(bases, exps), primes={2: 1, 3: 2, 5: 2})]
        assert not assert_compares_as_materialized(left, right)


def test_products_equal_over_crossed_factorings(steps):
    # no base divides another: only a gcd splits them, so division leaves
    # them all to the split
    p, q, r, s = 2**1279 - 1, 2**2203 - 1, 2**61 - 1, 2**89 - 1
    for e in (1, 4):
        assert assert_compares_as_materialized([fp((6, e), (10, e))], [fp((4, e), (15, e))])
        assert assert_compares_as_materialized([fp((p * q, e), (r * s, e))],
                                               [fp((p * r, e), (q * s, e))])
        assert not assert_compares_as_materialized([fp((p * q, e), (r * s, e))],
                                                   [fp((p * r, e), (q * s, e + 1))])
    assert assert_compares_as_materialized([fp((p * q, 2)), fp((p * r, 1))],
                                           [fp((p, 2), (q, 2)), fp((r * p, 1))])


def exponent_vectors(left, right) -> dict:
    """value -> exponent vector over the rows, left minus right, for
    products of positive bases (what products_equal hands its steps)."""
    exps = {}
    for r, pair in enumerate(zip(left, right)):
        for p, sign in zip(pair, (1, -1)):
            for b, e in [*p.primes.items(), *p.factors]:
                if b != 1:
                    exps.setdefault(b, [0] * len(left))[r] += sign * e
    return exps


def row_products(exps: dict, rows: int) -> list:
    return [math.prod(Fraction(v) ** vec[r] for v, vec in exps.items()) for r in range(rows)]


def test_division_and_split_keep_every_row_product():
    rng = random.Random(29)
    cancelled = split = 0
    for trial in range(300):
        rows = rng.randint(1, 3)
        left = [fp(*((rng.choice(POOL), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))),
                   primes={p: rng.randint(0, 4) for p in (2, 3, 5)}) for _ in range(rows)]
        if trial % 2:
            right = [regroup(p, rng) for p in left]
        else:
            right = [fp(*((rng.choice(POOL), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))))
                     for _ in range(rows)]
        exps = exponent_vectors(left, right)
        given = {v: list(vec) for v, vec in exps.items()}
        want = row_products(exps, rows)
        divided = algebra._divide_through(exps)
        assert exps == given
        assert row_products(divided, rows) == want
        assert all(any(vec) for vec in divided.values())
        base = algebra._coprime(divided)
        assert row_products(base, rows) == want
        assert all(any(vec) for vec in base.values())
        assert all(math.gcd(x, y) == 1 for x in base for y in base if x < y)
        assert (not base) is (want == [1] * rows)
        cancelled += not divided
        split += bool(divided)
    assert cancelled > 100 and split > 100


def test_split_of_values_that_share_a_factor_and_divide_no_other():
    # 6 and 10 share 2 and neither divides the other: division leaves both,
    # and the split gives the coprime base 2, 3, 5
    exps = {6: [1, 2], 10: [1, -1]}
    assert algebra._divide_through(exps) == exps
    base = algebra._coprime(exps)
    assert base == {2: [2, 1], 3: [1, 2], 5: [1, -1]}
    assert all(math.gcd(x, y) == 1 for x in base for y in base if x < y)
    assert products_equal([fp((6, 1), (10, 1))], [fp((2, 2), (3, 1), (5, 1))])
    assert not products_equal([fp((6, 1), (10, 1))], [fp((2, 1), (3, 1), (5, 1))])
    assert not products_equal([fp((6, 2), (10, 1))], [fp((2, 2), (3, 1), (5, 1))])


def test_split_where_what_is_left_of_a_value_shares_a_factor_with_the_gcd():
    # 18 meets 12: g = 6 leaves 3 of 18 and 2 of 12, each sharing a
    # factor with 6, so both are joined to the pieces of the split
    base = algebra._coprime({12: [1, 0], 18: [0, 1]})
    assert base == {2: [2, 1], 3: [1, 2]}
    assert algebra._coprime({12: [1, -1], 18: [1, -1], 6: [-3, 3]}) == {}
    assert products_equal([fp((12, 1), (18, 1))], [fp((6, 3))])
    assert not products_equal([fp((12, 1), (18, 1))], [fp((6, 2), (2, 1))])


def test_divide_out_finds_the_multiplicity():
    # on ints, and on Decimals under an exact context as exact_text runs it;
    # 14 shares a factor with 10 and y + 1 with none
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    for y in (2, 3, 10, 2**61 - 1):
        for left in (x for x in (7, 14, y + 1) if x % y):
            for k in range(40):
                assert algebra._divide_out(y**k * left, y) == (left, k)
                with decimal.localcontext(exact):
                    assert algebra._divide_out(Decimal(y**k * left), Decimal(y)) == (left, k)


# scales for exact_text with their factors: L = 1, the weights' lcm of the
# CLI's rational triples, a prime past the trial-division bound that trial
# division proves prime and one it leaves unproved, and cofactors that it
# leaves composite, which only gcds against the bases split
EXACT_TEXT_SCALES = {
    1: {},
    93330: {2: 1, 3: 2, 5: 1, 17: 1, 61: 1},
    2 * 1031: {2: 1, 1031: 1},
    12 * 4294967311: {2: 2, 3: 1, 4294967311: 1},
    1031 * 1033**2: {1031: 1, 1033: 2},
    4294967311 * 4294967357: {4294967311: 1, 4294967357: 1},
}


def coprime_to(scale: int, bits: int, rng) -> int:
    while True:
        r = rng.getrandbits(bits) | 1
        if math.gcd(r, scale) == 1:
            return r


def planted_run(scale: int, degree: int, rng, relations: set) -> list:
    """Products as a run's components are: shared bases to their powers,
    some holding factors of scale, times a last base of each component that
    plants its valuation at each factor q^e of scale at e * degree, 3 above
    or 3 below (where the shared bases leave room).  ``relations`` gains
    the sign of each planted difference."""
    shared = [(coprime_to(scale, 40, rng) * math.prod(q ** rng.randint(0, 2) for q in
                                                      EXACT_TEXT_SCALES[scale]),
               rng.randint(1, 3)) for _ in range(3)]
    products = []
    for _ in range(3):
        last = coprime_to(scale, 60, rng)
        for q, e in EXACT_TEXT_SCALES[scale].items():
            have = sum(x * algebra._divide_out(b, q)[1] for b, x in shared)
            want = max(have, e * degree + rng.choice((-3, 0, 3)))
            relations.add((want > e * degree) - (want < e * degree))
            last *= q ** (want - have)
        products.append(fp(*shared, (last * rng.choice((1, -1)), 1)))
    return products


@pytest.mark.parametrize("binary_bits", [None, 0], ids=["default", "decimal_only"])
def test_exact_text_is_the_reduced_fraction_string(monkeypatch, binary_bits):
    # at the default bound the small values are printed by str(Fraction),
    # and at 0 every value goes through the Decimal path
    if binary_bits is not None:
        monkeypatch.setattr(algebra, "_BINARY_BITS", binary_bits)
    rng = random.Random(37)
    relations = set()
    for scale in EXACT_TEXT_SCALES:
        for _ in range(8):
            degree = rng.randint(1, 30)
            # a run's components, a zero one, a negative base to an even and
            # to an odd power, and no base at all, printed from their
            # products; then a large value and a reduced fraction, each
            # printed as one base
            products = planted_run(scale, degree, rng, relations) + [
                fp((0, 1), (7, 2)), fp((-5, 2), (6, 3)), fp((-5, 3), primes={2: 4}), fp()]
            value = rng.getrandbits(9000) * 4294967311 ** rng.randint(0, 3)
            fraction = Fraction(rng.getrandbits(5000) * 1031, coprime_to(scale, 90, rng) * 1033)
            values = [*FactoredPoly.values(products), value, fraction]
            degrees = [degree] * 4 + [rng.randint(0, 30) for _ in values[4:]]
            want = [str(Fraction(v, scale**d)) for v, d in zip(values, degrees)]
            got = algebra.exact_text(values, scale, degrees, lambda: products)
            assert got == want, (scale, degree)
            assert algebra.exact_text(values, scale, degrees) == want, (scale, degree)
    assert relations == {-1, 0, 1}


def test_scale_cofactors_split_by_the_bases_alone():
    p, q = 4294967311, 4294967357
    # no base holds p or q: the composite cofactor stays whole
    assert algebra._scale_factors(6 * p * q, [35, 11]) == [(2, 1), (3, 1), (p * q, 1)]
    # a base holding p to a higher power than q splits it
    assert sorted(algebra._scale_factors(p * p * q, [p**3 * q * 7])) == [(p, 2), (q, 1)]


def test_products_compare_only_with_products():
    assert Products([fp((4, 1))]) == Products([fp((2, 2))])
    assert Products([fp((4, 1))]) != Products([fp((2, 2)), fp()])
    assert Products([fp((4, 1))]).__eq__((fp((2, 2)),)) is NotImplemented


def test_log_eval_agrees_with_exact_to_25_digits():
    t3 = rot_closed(3).T  # value at ones ~ 6.5e12, well under 1e200
    exact = t3.evaluate(ONES)
    with mpmath.workdps(60):
        approx = mpmath.exp(t3.log_evaluate(ONES))
        rel = abs(approx - mpmath.mpf(exact.numerator)) / mpmath.mpf(exact.numerator)
        assert rel < mpmath.mpf(10) ** -25


def test_canonical_text():
    p = 3 * A**2 * B - C + 5
    assert p.text() == "3*a^2*b - c + 5"
    assert TriPoly().text() == "0"
    f = FactoredPoly({2: 4}, [(A + B, 3), (A * B + A * C + B * C, 2)])
    assert f.text() == "2^4 * (a + b)^3 * (a*b + a*c + b*c)^2"
    # a value base prints as its str
    g = FactoredPoly({3: 1}, [(7, 2), (-5, -1), (Fraction(2, 9), 3)])
    assert repr(g) == "FactoredPoly(3^1 * (7)^2 * (-5)^-1 * (2/9)^3)"


def test_factored_invariants_enforced():
    with pytest.raises(ValueError):
        FactoredPoly(factors=[(TriPoly.const(3), 2)])
    with pytest.raises(ValueError):  # a polynomial base has no negative power
        FactoredPoly(factors=[(A + B, -1)])
    assert FactoredPoly(factors=[(5, -2)]).factors == [(5, -2)]
    with pytest.raises(ValueError):
        FactoredPoly({7: 1})
    assert FactoredPoly(factors=[(A + B, 0)]).factors == []


def test_jet_products_truncate_at_the_cube():
    x = Jet(2, 3, 5)
    assert x * Jet(7, 11, 13) == Jet(14, 2 * 11 + 3 * 7, 2 * 13 + 3 * 11 + 5 * 7)
    assert Jet(0, 1) * Jet(0, 1) == Jet(0, 0, 1)
    assert Jet(0, 1) ** 3 == Jet(0)
    assert x**0 == Jet(1) and x**1 == x and x**5 == x * x * x * x * x


def test_jet_takes_ints_on_either_side():
    x = Jet(2, 3, 5)
    assert 4 * x == x * 4 == Jet(8, 12, 20)
    assert 4 + x == x + 4 == Jet(6, 3, 5)
    assert 1 + 2 * x * x == Jet(9, 24, 58)
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(TypeError):
        x * Fraction(1, 2)


def test_jet_of_a_polynomial_is_its_value_and_derivatives():
    # p(1 + e, 1, 1) = p + p' e + p''/2 e^2 along a, read off the jet
    p = 3 * A**4 * B + 2 * A * B * C**2 + 7 * C + 1
    value = p.evaluate(Weights(Jet(1, 1), 1, 1))
    d1 = derivative(p, "a")
    assert value.coefficients() == (
        p.evaluate(ONES), d1.evaluate(ONES), derivative(d1, "a").evaluate(ONES) / 2
    )


def schoolbook(p, q):
    """The product of two TriPolys term by term: the oracle of the packed
    products."""
    t = {}
    for (i1, j1, k1), c1 in p.terms.items():
        for (i2, j2, k2), c2 in q.terms.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            t[e] = t.get(e, 0) + c1 * c2
    return TriPoly({e: c for e, c in t.items() if c})


def _random_poly(rng, terms, degree, bits, homogeneous):
    out = {}
    for _ in range(terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        k = degree - i - j if homogeneous else rng.randint(0, degree - i - j)
        out[i, j, k] = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    return TriPoly(out)


def _operands(seed):
    """Seeded pairs of operands: signed coefficients from a few bits to
    past 2^64, homogeneous and not, with the zero and constant
    polynomials among them."""
    rng = random.Random(seed)
    polys = [TriPoly(), TriPoly.const(-7), TriPoly.const(2**70 + 1), A - 3 * C]
    for bits in (3, 40, 64, 65, 130):
        for homogeneous in (True, False):
            for terms in (2, 9, 30):
                polys.append(_random_poly(rng, terms, rng.randint(1, 8), bits, homogeneous))
    return [(p, q) for p in polys for q in rng.sample(polys, 6)]


@pytest.mark.parametrize("cutoff", (0, algebra._SCHOOLBOOK_PAIRS))
def test_products_equal_the_schoolbook_oracle(monkeypatch, cutoff):
    # at cutoff 0 every product of two operands of two terms or more packs
    monkeypatch.setattr(algebra, "_SCHOOLBOOK_PAIRS", cutoff)
    for p, q in _operands(11):
        product = p * q
        assert product == schoolbook(p, q), (p, q)
        assert 0 not in product.terms.values()
        assert q * p == product


@pytest.mark.parametrize("cutoff", (0, algebra._SCHOOLBOOK_PAIRS))
def test_products_keep_no_cancelled_terms(monkeypatch, cutoff):
    monkeypatch.setattr(algebra, "_SCHOOLBOOK_PAIRS", cutoff)
    # (a - b)(a^m + a^(m-1) b + ... + b^m) packs at either cutoff, and all
    # but two terms cancel
    m = algebra._SCHOOLBOOK_PAIRS // 2 + 1
    geometric = sum((A**k * B ** (m - k) for k in range(m + 1)), TriPoly())
    assert ((A - B) * geometric).terms == {(m + 1, 0, 0): 1, (0, m + 1, 0): -1}
    assert (A + B) * (A - B) == A**2 - B**2
    big = sum((C**k * (A + B) ** (9 - k) for k in range(10)), TriPoly())
    assert ((A + B + C) * big - (A + B) * big - C * big).terms == {}


def test_packed_products_decode_coefficients_at_their_bound(monkeypatch):
    # the middle coefficient of each product is exactly +-len * max * max,
    # the bound the slot width is taken from
    monkeypatch.setattr(algebra, "_SCHOOLBOOK_PAIRS", 0)
    for top in (127, 128, 255, 2**63, 2**64 - 1, 2**64, 3**90):
        p = sum((top * A**k * B ** (11 - k) for k in range(12)), TriPoly())
        square = p * p
        assert square.terms[11, 11, 0] == 12 * top * top
        assert square == schoolbook(p, p)
        assert p * -p == -square
        assert p**2 == square


def test_one_term_operands_are_never_packed(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed a one-term operand")

    monkeypatch.setattr(algebra, "_packed_product", refuse)
    wide = TriPoly({(i, j, 7 - i - j): i - j for i in range(8) for j in range(8 - i)})
    assert 5 * wide == wide * 5 == schoolbook(TriPoly.const(5), wide)
    assert A**3 * wide == schoolbook(A**3, wide)
    assert (-2 * A * C) ** 5 == TriPoly({(5, 0, 5): -32})
    assert TriPoly() * wide == TriPoly() and wide * 0 == TriPoly()


def test_powers_equal_repeated_products():
    e = A * B + A * C + B * C
    for p in (e, A - B + 2, -(2**65) * C + A * B - 1, TriPoly.const(-3), TriPoly(),
              _random_poly(random.Random(3), 12, 4, 70, False)):
        expected = TriPoly.const(1)
        for n in range(7):
            assert p**n == expected, (p, n)
            expected = schoolbook(expected, p)
    assert TriPoly() ** 0 == 1 and TriPoly() ** 3 == TriPoly()
    with pytest.raises(ValueError):
        e ** -1


def test_expand_equals_the_term_by_term_product():
    e = A * B + A * C + B * C
    for primes in ({}, {2: 3, 5: 1}, {3: 40}):
        for factors in ([(e, 3)], [(e, 2), (A + B, 5), (A - 2 * C + 1, 3)],
                        [(A - B, 7), (-(2**64) * A + 3 * B * C, 2)]):
            expected = TriPoly.const(2 ** primes.get(2, 0) * 3 ** primes.get(3, 0)
                                     * 5 ** primes.get(5, 0))
            for base, exp in factors:
                for _ in range(exp):
                    expected = schoolbook(expected, base)
            assert FactoredPoly(primes, factors).expand() == expected, (primes, factors)
    assert FactoredPoly({2: 2}).expand() == TriPoly.const(4)
