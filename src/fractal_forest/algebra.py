"""Exact trivariate polynomial arithmetic over the weight variables a, b, c.

Two representations are used throughout the package:

* ``TriPoly`` -- expanded sparse form, a map from exponent triples to
  arbitrary-precision integer coefficients.  Supports ring arithmetic
  and exact evaluation at rational weights.  A large product is formed
  by Kronecker substitution: each operand is packed into one ``int``,
  the ints are multiplied by CPython, and the coefficients are read
  back off the bytes of the result (``_packed_product``).
* ``FactoredPoly`` -- a product ``2^e2 * 3^e3 * 5^e5 * prod base_i^exp_i``
  with big-integer exponents and bases in the ring of the weights.  The
  closed forms of the generating functions live here, because their
  exponents grow like 3^n and an expanded form is hopeless past the
  first few levels.  At integer weights it is also the value in which
  ``verify`` compares the runs, with neither multiplied out: the gasket
  and hanoi bundles as their contents to powers times a primitive part,
  and hanoi's decimation as its denominators to negative powers.

A third, ``Jet``, is a ring of truncated jets ``c0 + c1 e + c2 e^2``:
any recursion run at a weight ``1 + e`` gives its value with its first
two derivatives along that weight, which is all the label statistics
need.

Evaluated weights are exact: ``fractions.Fraction`` or ``int``.  A
polynomial with integer coefficients evaluated at integer weights stays
an ``int``, so the evaluated routes run at the weights times the lcm of
their denominators (``Weights.clear_denominators``) and never reduce a
fraction.
Every evaluated product of powers (the closed forms, the closed counts,
the content of a run) goes through ``power_products``, which forms
each product by one squaring chain: its multiplications of full-size
numbers number two per bit of the largest exponent, however many bases
the product has.  Where only the equality of two products of powers of
integers is wanted, ``products_equal`` decides it with neither formed.
High-precision real work (logs of astronomically large exact values)
goes through mpmath, which is imported only in the functions that do it,
so the exact routes never load it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import CapabilityError

VARS = ("a", "b", "c")

#: default seed for every randomized identity test, for reproducibility
DEFAULT_SEED = 1729

#: numerators/denominators of random sample points stay below this bound
SAMPLE_BOUND = 97

#: working precision (decimal digits) for log-space evaluation
LOG_DPS = 60

#: refuse to expand factored products past this total degree
EXPANSION_DEGREE_CAP = 60

# a product of two TriPolys with at most this many pairs of terms is
# formed term by term, a larger one packed into ints: over the products
# that symbolic gf forms at levels 1-3, the total time was least here
_SCHOOLBOOK_PAIRS = 200

# in the first pass of products_equal, two values of at least this many
# bits are compared by division alone: comparing a gasket's closed form
# with its recursion at levels 8, 9 and 12 took least time from 256 to
# 1024 bits, 15-35% less than with gcds everywhere
_DIVIDE_ONLY_BITS = 1024


class Weights(namedtuple("Weights", VARS)):
    """The weights of the three edge labels.  Each entry is an element of
    the ring a recursion runs in: int, Fraction, TriPoly (the variables,
    ``sierpinski.SYMBOLS``, for symbolic results) or Jet.  A tuple
    ``(a, b, c)``: read by label as ``w.a`` and by position as ``w[0]``."""

    __slots__ = ()

    @classmethod
    def of(cls, a, b, c) -> "Weights":
        return cls(Fraction(a), Fraction(b), Fraction(c))

    @classmethod
    def ones(cls) -> "Weights":
        return cls.of(1, 1, 1)

    @classmethod
    def parse(cls, sa: str, sb: str, sc: str) -> "Weights":
        """Parse weights given as exact rational strings like ``3/7`` or ``2``.

        Floats are rejected: exactness is end to end.
        """
        return cls(_parse_rational(sa), _parse_rational(sb), _parse_rational(sc))

    def clear_denominators(self) -> tuple["Weights", int]:
        """The weights times the lcm L of their denominators, as integers,
        and L.  A polynomial homogeneous of degree d takes L^d times its
        value at w there."""
        ints, scale = clear_denominators(self)
        return Weights(*ints), scale

    def all_positive(self) -> bool:
        return self.a > 0 and self.b > 0 and self.c > 0

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def clear_denominators(values) -> tuple[list[int], int]:
    """Exact rationals times the lcm of their denominators, as integers,
    and that lcm."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _parse_rational(s: str) -> Fraction:
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"weights must be exact rationals like '3/7', got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {s!r}: {exc}") from None


class TriPoly:
    """Sparse trivariate polynomial with integer coefficients.

    Terms are stored as ``{(i, j, k): coeff}`` meaning ``coeff * a^i b^j c^k``;
    zero coefficients are never kept.

    A product of two polynomials, neither a single term, with more than
    _SCHOOLBOOK_PAIRS pairs of terms is formed by Kronecker substitution,
    a smaller one term by term.  The term ``a^i b^j c^k`` of the product
    goes to slot ``(i*B + j)*D + (i + j + k - lo)`` of an int of ``w``
    bytes per slot, where B exceeds the product's degree in b, lo is its
    lowest total degree and D its span of total degrees (D = 1 for
    homogeneous operands, whose slots fill a triangle in i and j).  No
    coefficient of ``p * q`` exceeds ``min(len p, len q) * max|p| *
    max|q|``, and ``2^(8w - 1)`` exceeds that bound, so each slot holds
    its coefficient exactly, sign included.  ``p**n`` and
    ``FactoredPoly.expand`` pack their bases once, into the slots of the
    final product, under the bound ``const * prod(norm(base)^exp)``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    t[tuple(exps)] = coeff
        self.terms = t

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, n: int) -> "TriPoly":
        return cls({(0, 0, 0): int(n)})

    @classmethod
    def var(cls, name: str) -> "TriPoly":
        i = VARS.index(name)
        e = [0, 0, 0]
        e[i] = 1
        return cls({tuple(e): 1})

    @classmethod
    def variables(cls):
        return tuple(cls.var(v) for v in VARS)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TriPoly):
            return other
        if isinstance(other, int):
            return TriPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            nc = t.get(e, 0) + c
            if nc:
                t[e] = nc
            else:
                t.pop(e, None)
        return TriPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = self.terms, other.terms
        if min(len(p), len(q)) > 1 and len(p) * len(q) > _SCHOOLBOOK_PAIRS:
            bound = min(len(p), len(q)) * max(map(abs, p.values())) * max(map(abs, q.values()))
            return _packed_product(1, [(self, 1), (other, 1)], bound)
        t = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                nc = t.get(e, 0) + c1 * c2
                if nc:
                    t[e] = nc
                else:
                    del t[e]
        return _from_terms(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n == 0:
            return TriPoly.const(1)
        if len(self.terms) <= 1:
            return _from_terms({(i * n, j * n, k * n): c**n for (i, j, k), c in self.terms.items()})
        return _packed_product(1, [(self, n)], self.norm() ** n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries --------------------------------------------------------

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def norm(self) -> int:
        """The sum of the absolute values of the coefficients, a bound on
        every coefficient that is submultiplicative: no coefficient of
        ``p * q`` exceeds ``p.norm() * q.norm()``."""
        return sum(map(abs, self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def evaluate(self, w: Weights) -> Fraction | int:
        """Exact value at w; an int at integer weights."""
        total = 0
        for (i, j, k), c in self.terms.items():
            total += c * w.a**i * w.b**j * w.c**k
        return total

    # -- canonical text -------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order: higher total degree first, lex ties."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join([v if p == 1 else f"{v}^{p}" for v, p in zip(VARS, e) if p > 0])
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"TriPoly({self.text()})"


def _from_terms(terms: dict) -> TriPoly:
    """A TriPoly on a dict of exponent triples to nonzero coefficients,
    taken as it is."""
    out = TriPoly()
    out.terms = terms
    return out


def _packed_product(const: int, factors, bound: int) -> TriPoly:
    """``const * prod(base**exp for base, exp in factors)`` by Kronecker
    substitution (see TriPoly), for nonzero bases and a ``bound`` on the
    absolute value of every coefficient of the result.

    A base packs into the product's slots with its own lowest total
    degree in place of lo, so that slot numbers add as exponents do, as
    one ``int``: its positive coefficients minus its negative ones.  The
    ints are multiplied in one squaring chain (``_power_product``), and
    the coefficients are read off the bytes of the result once, after
    ``2^(8w - 1)`` is added to every slot so that none borrows from the
    next.
    """
    lo = hi = imax = jmax = 0
    lows = []
    for base, exp in factors:
        degrees = [i + j + k for i, j, k in base.terms]
        columns = tuple(zip(*base.terms))
        lows.append(min(degrees))
        lo += exp * lows[-1]
        hi += exp * max(degrees)
        imax += exp * max(columns[0])
        jmax += exp * max(columns[1])
    span, stride = hi - lo + 1, jmax + 1
    width = (bound.bit_length() + 8) // 8
    slots = (imax + 1) * stride * span
    packed = [_pack(base.terms, low, width, stride, span) for (base, _), low in zip(factors, lows)]
    value = _power_product([const, *packed], [1, *(exp for _, exp in factors)])
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    data = (value + int.from_bytes(zero * slots, "little")).to_bytes(slots * width, "little")
    from_bytes = int.from_bytes
    terms = {}
    step = span * width  # from one b-degree to the next
    for t in range(lo, hi + 1):
        for i in range(min(imax, t) + 1):
            at = (i * stride * span + t - lo) * width
            for j in range(min(jmax, t - i) + 1):
                chunk = data[at:at + width]
                if chunk != zero:
                    terms[i, j, t - i - j] = from_bytes(chunk, "little") - half
                at += step
    return _from_terms(terms)


def _pack(terms: dict, lo: int, width: int, stride: int, span: int) -> int:
    """The slots of a base of lowest total degree lo, as one signed int."""
    slots = [(i * stride + j) * span + i + j + k - lo for i, j, k in terms]
    positive = [bytes(width)] * (max(slots) + 1)
    negative = positive.copy()
    for s, c in zip(slots, terms.values()):
        if c > 0:
            positive[s] = c.to_bytes(width, "little")
        else:
            negative[s] = (-c).to_bytes(width, "little")
    return (int.from_bytes(b"".join(positive), "little")
            - int.from_bytes(b"".join(negative), "little"))


class FactoredPoly:
    """Product form ``2^e2 3^e3 5^e5 * prod base_i^exp_i`` with huge exponents.

    Bases are elements of the ring of the weights: TriPolys at the
    variables, which expand, print and take logs, or values (int,
    Fraction, Jet or any other ring) at evaluated weights, which
    ``values`` multiplies out.  Exponents are nonzero integers; factors
    with exponent zero are dropped at construction.  A TriPoly base must
    be nonconstant, with a positive exponent; a value base may take a
    negative one, for a denominator.
    """

    __slots__ = ("primes", "factors")

    def __init__(self, primes=None, factors=None):
        self.primes = {2: 0, 3: 0, 5: 0}
        if primes:
            for p, e in primes.items():
                p = int(p)
                if p not in self.primes:
                    raise ValueError(f"unsupported prime prefactor {p}")
                if e < 0:
                    raise ValueError("prime exponents must be nonnegative")
                self.primes[p] = int(e)
        self.factors = []
        for base, exp in factors or []:
            if exp == 0:
                continue
            if isinstance(base, TriPoly) and (exp < 0 or base.is_constant()):
                raise ValueError("polynomial bases must be nonconstant, to positive powers")
            self.factors.append((base, int(exp)))

    def evaluate(self, w: Weights) -> Fraction | int:
        """Exact value at w of a product of TriPolys, an int at integer
        weights; never expands.  Beware: the result itself may be huge."""
        at_w = FactoredPoly(self.primes, [(base.evaluate(w), exp) for base, exp in self.factors])
        return FactoredPoly.values([at_w])[0]

    @staticmethod
    def values(products) -> list:
        """The exact values of several products of values, each base's
        powers shared between the products (``power_products``).  A base
        is one object, however many products hold it, so a ring need not
        hash its elements; to a negative power it enters once more, as
        its inverse ``Fraction``."""
        bases = {}
        for p in products:
            for base, exp in p.factors:
                if (id(base), exp < 0) not in bases:
                    bases[id(base), exp < 0] = Fraction(1, base) if exp < 0 else base
        rows = []
        for p in products:
            exps = dict.fromkeys(bases, 0)
            for base, exp in p.factors:
                exps[id(base), exp < 0] += abs(exp)
            rows.append([p.primes[2], p.primes[3], p.primes[5], *exps.values()])
        return power_products([2, 3, 5, *bases.values()], rows)

    def log_evaluate(self, w: Weights) -> mpmath.mpf:
        """Natural log of the value at positive weights, in high precision."""
        import mpmath

        if not w.all_positive():
            raise ValueError("log evaluation requires strictly positive weights")
        with mpmath.workdps(LOG_DPS):
            total = mpmath.mpf(0)
            for p in (2, 3, 5):
                if self.primes[p]:
                    total += self.primes[p] * mpmath.log(p)
            for base, exp in self.factors:
                v = base.evaluate(w)
                if v <= 0:
                    raise ValueError("factor base not positive at these weights")
                total += exp * _log_fraction(v)
            return +total

    def expand(self) -> TriPoly:
        degree = sum(base.total_degree() * exp for base, exp in self.factors)
        if degree > EXPANSION_DEGREE_CAP:
            raise CapabilityError(
                f"expansion would reach total degree {degree} > cap {EXPANSION_DEGREE_CAP}"
            )
        const = 2 ** self.primes[2] * 3 ** self.primes[3] * 5 ** self.primes[5]
        if not self.factors:
            return TriPoly.const(const)
        bound = const * math.prod(base.norm() ** exp for base, exp in self.factors)
        return _packed_product(const, self.factors, bound)

    def text(self) -> str:
        parts = [
            f"{p}^{e}" for p, e in sorted(self.primes.items()) if e
        ]
        for base, exp in self.factors:
            parts.append(f"({base.text() if isinstance(base, TriPoly) else base})^{exp}")
        return " * ".join(parts) if parts else "1"

    def __repr__(self):
        return f"FactoredPoly({self.text()})"


class Jet:
    """A truncated jet ``c0 + c1 e + c2 e^2`` with e^3 = 0 and integer
    coefficients: a ring element, so a recursion run at a weight 1 + e
    yields its value and its first two derivatives along that weight
    (forward-mode differentiation), with c2 half the second derivative.
    An int on either side of ``+``, ``*`` and ``==`` is a constant jet."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: int, c1: int = 0, c2: int = 0):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)
        if isinstance(other, int):
            return Jet(self.c0 + other, self.c1, self.c2)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Jet):
            a0, a1, a2 = self.c0, self.c1, self.c2
            b0, b1, b2 = other.c0, other.c1, other.c2
            return Jet(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)
        if isinstance(other, int):
            return Jet(self.c0 * other, self.c1 * other, self.c2 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Jet(1)
        for _ in range(n):  # the recursions raise weights to small powers only
            result = result * self
        return result

    def coefficients(self) -> tuple[int, int, int]:
        return self.c0, self.c1, self.c2

    def __eq__(self, other):
        if isinstance(other, int):
            other = Jet(other)
        if not isinstance(other, Jet):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __repr__(self):
        return f"Jet({self.c0}, {self.c1}, {self.c2})"


def _log_fraction(q: Fraction) -> mpmath.mpf:
    import mpmath

    return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


# -- module-level operations ------------------------------------------------


def power_products(bases, rows) -> list:
    """The products prod(b**e for b, e in zip(bases, row)) of each row of
    exponents, exactly, with 0**0 == 1.

    Rows that share bases share their powers: the product of each base
    raised to the least exponent any row gives it is formed once, and a
    row then multiplies it by the product of its excess powers alone,
    which is small when the rows' exponents are close, as they are
    between the components of a closed form.  Each of these products is
    one squaring chain (``_power_product``), never a power per base.
    """
    least = [min(column) for column in zip(*rows)]
    shared = _power_product(bases, least)
    return [shared * _power_product(bases, [e - m for e, m in zip(row, least)]) for row in rows]


def _power_product(bases, exps):
    """prod(b**e for b, e in zip(bases, exps)) by simultaneous
    exponentiation: the running product is squared once per bit of the
    largest exponent, from the top, and then multiplied by the product
    of the bases whose exponent has that bit set.  So it makes two
    products of its own size per bit however many bases there are, and
    the bases meet each other only while they are small.  A base whose
    exponent is 0 never enters, so 0**0 == 1 and the result keeps the
    type of the bases that do."""
    value = 1
    for bit in reversed(range(max(exps, default=0).bit_length())):
        step = 1
        for base, e in zip(bases, exps):
            if e >> bit & 1:
                step = step * base
        value = value * value * step
    return value


def products_equal(left, right) -> bool:
    """Whether each product of ``left`` equals the one at its place in
    ``right``, exactly, with no product formed.  A product is a
    FactoredPoly of ``int`` bases, a base to a negative power standing
    for a nonzero denominator.

    Zeros and signs are settled first, row by row.  What is left is one
    equation per row, ``prod v^E_v[r] == 1``, over the distinct absolute
    values v > 1 of the bases, with E_v[r] the exponent of v on the left
    minus that on the right.  Refining keeps every row's product: two
    values x and y with g = gcd(x, y) > 1 become x/g, g and y/g, g taking
    the sum of their exponent vectors, and a value whose vector is zero,
    or which is 1, is dropped.  When no two values left share a factor,
    each has a prime that divides no other, and the power of that prime
    in row r is E_v[r] times its power in v; so, by unique factorization,
    every row holds if and only if no value is left.  Equality over a
    pairwise-coprime base is equality of exponent vectors (Bernstein,
    *Factoring into coprimes in essentially linear time*, 2005).

    The refinement runs twice.  The first pass compares two values of
    at least _DIVIDE_ONLY_BITS bits by exact division alone: a gcd of two
    such coprime values is the costliest step, and the large bases of a
    closed form and of a recursion cancel by division.  If anything is
    left, a second pass with gcds everywhere decides from there.
    """
    rows = len(left)
    exps = {}
    for r, pair in enumerate(zip(left, right)):
        powers = [[*p.primes.items(), *p.factors] for p in pair]
        zero = [any(b == 0 for b, _ in ps) for ps in powers]
        if any(zero):
            if not all(zero):
                return False
            continue
        if len({sum(e for b, e in ps if b < 0) % 2 for ps in powers}) > 1:
            return False
        for ps, sign in zip(powers, (1, -1)):
            for b, e in ps:
                if abs(b) != 1:
                    exps.setdefault(abs(b), [0] * rows)[r] += sign * e
    left_over = _refine(exps, _DIVIDE_ONLY_BITS)
    return not (left_over and _refine(left_over, None))


class Products(tuple):
    """A tuple of FactoredPolys of ``int`` bases that ``==`` compares with
    another by ``products_equal``: exactly, and with no product formed."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Products):
            return NotImplemented
        return len(self) == len(other) and products_equal(self, other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


def _refine(exps: dict, divide_only) -> dict:
    """The values and exponent vectors left by refining ``exps`` (see
    ``products_equal``).  With ``divide_only`` None they are pairwise
    coprime.  Otherwise two values of at least that many bits are
    compared by exact division alone, and what is left need not be
    coprime; every step still keeps each row's product.

    Values are taken smallest first, and each is compared with the kept
    values from the smallest up, so that it sheds its small factors
    before it meets a large value.  A value carries the set of kept
    values it need not be compared with: those found coprime to it and,
    for a part of a kept value that splits, the other kept values.  With
    ``divide_only`` set, a pair compared by division alone may still
    share a factor, which only leaves more behind.
    """
    kept = {}  # value -> exponent vector
    order = []  # (bit length, value) of the kept values, ascending
    queue = []  # (bit length, tiebreak, value, vector, values known coprime to it)
    count = itertools.count()

    def push(x, vec, known):
        if x != 1 and any(vec):
            heapq.heappush(queue, (x.bit_length(), next(count), x, vec, known))

    def add(y, vec, times=1):
        # y's vector gains ``times`` x vec; y is dropped at zero
        total = [a + times * b for a, b in zip(kept[y], vec)]
        if any(total):
            kept[y] = total
        else:
            del kept[y]
            order.remove((y.bit_length(), y))

    def by_division(x, size):
        return divide_only is not None and min(x.bit_length(), size) >= divide_only

    for x, vec in exps.items():
        push(x, vec, frozenset())
    while queue:
        _, _, x, vec, known = heapq.heappop(queue)
        coprime = []
        for size, y in list(order):
            if x in kept:
                add(x, vec)
                break
            if y in known or y not in kept:
                continue
            if by_division(x, size):
                if x % y:
                    continue
                g = y
            else:
                g = math.gcd(x, y)
            if g == y:
                x, times = _divide_out(x, y)
                add(y, vec, times)
                if x == 1:
                    break
                # y may be gone, its vector fallen to zero
                if y not in kept or by_division(x, size):
                    continue
                g = math.gcd(x, y)
            if g == 1:
                coprime.append(y)
                continue
            # split y, coprime to every other kept value (see above)
            y_vec = kept.pop(y)
            order.remove((size, y))
            others = frozenset(kept)
            if g == x:
                y, times = _divide_out(y, x)
                push(y, y_vec, others)
                push(x, [a + times * b for a, b in zip(vec, y_vec)], others)
            else:
                push(y // g, y_vec, others)
                push(g, [a + b for a, b in zip(vec, y_vec)], others)
                push(x // g, vec, known.union(coprime))
            break
        else:
            if x in kept:
                add(x, vec)
            else:
                kept[x] = vec
                bisect.insort(order, (x.bit_length(), x))
    return kept


def _divide_out(x: int, y: int) -> tuple[int, int]:
    """(x / y^k, k) for the largest k with y^k | x, for y > 1: x is
    divided by y, y^2, y^4, ... while they divide it, then by the same
    powers from the top down, so k costs about 2 log2(k) divisions."""
    times, powers = 0, [y]
    while True:
        q, r = divmod(x, powers[-1])
        if r:
            break
        x, times = q, times + (1 << (len(powers) - 1))
        powers.append(powers[-1] * powers[-1])
    for j in reversed(range(len(powers) - 1)):
        q, r = divmod(x, powers[j])
        if not r:
            x, times = q, times + (1 << j)
    return x, times


def positive_weights(rng: random.Random) -> Weights:
    """Random positive weights with pairwise distinct entries, each a
    numerator over a denominator drawn from 1..SAMPLE_BOUND."""
    while True:
        a, b, c = (Fraction(rng.randint(1, SAMPLE_BOUND), rng.randint(1, SAMPLE_BOUND)) for _ in VARS)
        if a != b and b != c and a != c:
            return Weights(a, b, c)


def poly_equal_by_sampling(p, q, trials: int = 20, seed: int = DEFAULT_SEED) -> bool:
    """Probabilistic identity test at random rational points.

    Points have pairwise distinct coordinates so that symmetric accidents
    cannot mask a difference; the seed fixes the 'random' points.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    for _ in range(trials):
        w = positive_weights(rng)
        if p.evaluate(w) != q.evaluate(w):
            return False
    return True
