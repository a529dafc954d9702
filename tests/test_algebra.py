import hashlib
import random
from fractions import Fraction

import mpmath
import pytest

from fractal_forest.algebra import (
    FactoredPoly,
    Jet,
    TriPoly,
    Weights,
    poly_equal_by_sampling,
    positive_weights,
    power_products,
)
from fractal_forest.errors import CapabilityError
from fractal_forest.sierpinski import rot_closed

from conftest import full_size_products

A, B, C = TriPoly.variables()
ONES = Weights.ones()


def test_weights_parse_rationals_only():
    w = Weights.parse("3/7", "2", "1/2")
    assert w.a == Fraction(3, 7) and w.b == 2 and w.c == Fraction(1, 2)
    with pytest.raises(ValueError):
        Weights.parse("1.5", "1", "1")
    with pytest.raises(ValueError):
        Weights.parse("1/0", "1", "1")


def test_eval_examples():
    e = A * B + A * C + B * C
    assert e.evaluate(ONES) == 3
    t1 = 3 * (A + B) * e**2
    assert t1.evaluate(ONES) == 54
    factored = FactoredPoly({2: 1}, [(e, 2), (A + B + C, 1)])
    assert factored.evaluate(ONES) == 54


def test_derivative_examples():
    e = A * B + A * C + B * C
    assert e.derivative("c") == A + B
    square = (2 * C + 1) ** 2
    assert square.derivative("c") == 8 * C + 4
    t1 = 3 * (A + B) * e**2
    assert t1.derivative("a").evaluate(ONES) == 99


def test_log_eval_examples():
    e = A * B + A * C + B * C
    v = FactoredPoly({2: 1}, [(e, 2), (A + B + C, 1)]).log_evaluate(ONES)
    with mpmath.workdps(60):
        assert abs(v - mpmath.log(54)) < mpmath.mpf(10) ** -30
    ratio = float(rot_closed(6).T.log_evaluate(ONES)) / 1095
    assert abs(ratio - 1.0453) < 2e-4
    with pytest.raises(ValueError):
        FactoredPoly.of(e).log_evaluate(Weights.of(-1, 1, 1))


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
    for w in (ONES, Weights.of(0, 0, 0), Weights.of(1, -1, 1), Weights.parse("1/3", "2/7", "5")):
        values = FactoredPoly.evaluate_all(products, w)
        assert values == [p.evaluate(w) for p in products] == [p.expand().evaluate(w) for p in products]
        assert [type(v) for v in values] == [type(p.evaluate(w)) for p in products]


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


def test_factored_invariants_enforced():
    with pytest.raises(ValueError):
        FactoredPoly(factors=[(TriPoly.const(3), 2)])
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
    d1 = p.derivative("a")
    assert value.coefficients() == (
        p.evaluate(ONES), d1.evaluate(ONES), d1.derivative("a").evaluate(ONES) / 2
    )
