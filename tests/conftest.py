import os
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

from fractal_forest import kirchhoff
from fractal_forest.algebra import VARS, TriPoly, Weights, clear_denominators, positive_weights
from fractal_forest.errors import DecimationSingularError
from fractal_forest.graphs import LABELS, build_hanoi
from fractal_forest.kirchhoff import SchurState, schur_map
from fractal_forest.sierpinski import CountsTriple


def src_env() -> dict:
    """The environment for a subprocess that imports the package from
    this checkout: src goes in front of the caller's path, which may be
    where the dependencies come from."""
    path = [str(Path(kirchhoff.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def positive_weight_list(seed: int, count: int):
    rng = random.Random(seed)
    return [positive_weights(rng) for _ in range(count)]


def derivative(p: TriPoly, label: str) -> TriPoly:
    """The partial derivative of a TriPoly along one label's weight."""
    idx = VARS.index(label)
    t = {}
    for e, c in p.terms.items():
        if e[idx]:
            lower = tuple(x - (i == idx) for i, x in enumerate(e))
            t[lower] = t.get(lower, 0) + c * e[idx]
    return TriPoly(t)


def schur_denominator(s: SchurState) -> Fraction:
    """D(s), the decimation map's denominator, from the table on the
    state cleared to integers: D(t) / delta^6."""
    _, delta, d = kirchhoff._cleared_denominator(s)
    return Fraction(d, delta**6)


def random_states(seed: int, count: int):
    """Generic decimation states with nonvanishing denominator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = SchurState.random(rng)
        if schur_denominator(s) != 0:
            out.append(s)
    return out


def reference_hanoi_counts(n: int) -> CountsTriple:
    """The unweighted hanoi counts (tau, s, q) at level n by a plain loop
    on full-size integers, with no content divided out."""
    if n < 1:
        raise ValueError("level must be >= 1")
    tau, s, q = 3, 1, 1
    for _ in range(n - 1):
        tau, s, q = (
            3 * tau**3 + 6 * tau**2 * s,
            tau**3 + 7 * tau**2 * s + 7 * tau * s**2 + tau**2 * q,
            3 * tau**2 * q
            + 12 * tau * s * q
            + 14 * s**3
            + 12 * tau**2 * s
            + tau**3
            + 36 * tau * s**2,
        )
    return CountsTriple(tau, s, q)


def reference_sparse_det(rows: dict, keep=()):
    """The elimination kernel as it was before its pivot heap, the
    reference for its pivot order: every row cleared, and the shortest
    live row found by a scan of all of them.  Same contract and return
    as ``kirchhoff._sparse_det``."""
    dens = {}
    holders = {j: set() for j in rows}
    for i, row in rows.items():
        ints, dens[i] = clear_denominators(row.values())
        rows[i] = dict(zip(row, ints))
        for j in row:
            holders[j].add(i)
    live = dict.fromkeys(i for i in rows if i not in keep)
    pivot_col = {}
    num = den = 1
    while live:
        p = min(live, key=lambda i: len(rows[i]))
        row = rows[p]
        c = min(row, key=lambda j: (j in keep, len(holders[j]), j != p), default=None)
        if c is None or c in keep:
            num, pivot_col = 0, {}
            break
        del live[p]
        pivot_col[p] = c
        pivot = row[c]
        num *= pivot
        den *= dens[p]
        for j in row:
            holders[j].discard(p)
        for i in holders[c]:
            target = rows[i]
            factor = target.pop(c)
            for j in target:
                target[j] *= pivot
            for j, x in row.items():
                if j == c:
                    continue
                y = target.get(j)
                if y is None:
                    target[j] = -factor * x
                    holders[j].add(i)
                else:
                    y -= factor * x
                    if y:
                        target[j] = y
                    else:
                        del target[j]
                        holders[j].discard(i)
            d = dens[i] * pivot
            g = gcd(d, *target.values())
            if d < 0:
                g = -g
            if g != 1:
                for j in target:
                    target[j] //= g
            dens[i] = d // g
    transpositions = 0
    while pivot_col:
        start, j = pivot_col.popitem()
        while j != start:
            j = pivot_col.pop(j)
            transpositions += 1
    det = Fraction(-num if transpositions % 2 else num, den)
    return (det, {k: (rows[k], dens[k]) for k in keep}) if keep else det


def sparse(rows) -> dict:
    """A dense matrix in the kernel's ``{row: {column: entry}}`` form."""
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(rows)}


# -- the decimation network and lambda as dense rows, the reference for the
# sparse rows kirchhoff builds


def reference_state_network(k: int, s, loops: bool):
    """Dense rows of the level-k hanoi graph weighted by a decimation
    state, the entries off the graph ``x1 * 0``: the int 0 on a state
    cleared to integers, ``Fraction(0)`` on Fractions."""
    g = build_hanoi(k, include_loops=loops)
    block = [int(word[0]) for word in g.vertices]
    zero = s[0] * 0
    rows = [[zero] * len(block) for _ in block]
    for i, b in enumerate(block):
        rows[i][i] = s[6 + b]
    for e in g.edges:
        label = LABELS.index(e.label)
        if e.is_loop:
            rows[e.u][e.u] -= s[label]
        else:
            weight = s[label if block[e.u] == block[e.v] else 3 + label]
            rows[e.u][e.v] = rows[e.v][e.u] = -weight
    return rows


def reference_lambda(k: int, s: SchurState):
    """Dense masked matrix: the network with its loops, the first row
    and column cleared down to the single x1 + x2 entry."""
    rows = reference_state_network(k, s, loops=True)
    zero = s.x1 * 0
    for i in range(len(rows)):
        rows[0][i] = rows[i][0] = zero
    rows[0][0] = s.x1 + s.x2
    return rows


# -- the map rederived by seven separate determinants, the reference for the
# one Schur complement of kirchhoff._rederive

INNER = (1, 2, 3, 5, 6, 7)  # the six non-corner words of the level-2 network


# x4 = x5 = x6 = 0 and x9 = x1: both D and the inner block vanish
SINGULAR_STATE = SchurState(*map(Fraction, (1, 2, 3, 0, 0, 0, 5, 7, 1)))


def _det(rows, keep_rows, keep_cols):
    return kirchhoff._sparse_det(sparse([[rows[i][j] for j in keep_cols] for i in keep_rows]))


def reference_rederived(s: SchurState):
    """The level-2 network weighted by s, and the determinant of the block
    of its six non-corner words."""
    rows = reference_state_network(2, s, loops=False)
    return rows, _det(rows, INNER, INNER)


def reference_schur_complement(s: SchurState, rows, inner) -> SchurState:
    if inner == 0:
        raise DecimationSingularError("elimination block is singular")

    def entry(p, q):
        # a bordered determinant over the inner one is a Schur-complement entry
        return _det(rows, INNER + (p,), INNER + (q,)) / inner

    return SchurState(
        s.x1, s.x2, s.x3,
        -entry(0, 4), -entry(0, 8), -entry(4, 8),
        entry(0, 0), entry(4, 4), entry(8, 8),
    )


def reference_map_rederived(s: SchurState) -> SchurState:
    return reference_schur_complement(s, *reference_rederived(s))


def reference_divergence(s: SchurState) -> dict:
    """The table map against the reference, compared at s in Fractions;
    where either denominator vanishes, D alone."""
    out = {}
    rows, d_red = reference_rederived(s)
    d_table = schur_denominator(s)
    if d_table != d_red:
        out["D"] = (str(d_table), str(d_red))
    if d_table and d_red:
        a = schur_map(s)
        b = reference_schur_complement(s, rows, d_red)
        for i, (x, y) in enumerate(zip(a, b), start=1):
            if x != y:
                out[f"x{i}"] = (str(x), str(y))
    return out


def table_numerators(s: SchurState):
    """D(s) and the new x4..x9 times it, the tables of the map evaluated
    term by term in Fractions."""
    def value(terms):
        return sum(c * prod(x**e for x, e in zip(s, exps)) for c, exps in terms)

    tables = kirchhoff._map_tables()
    d = value(tables["D"][0])
    return d, [value(tables[i][0]) + (s[i - 1] * d if i >= 7 else 0) for i in range(4, 10)]


# the weights at which each recursion step is checked against its paper
# transcription: degenerate and signed integers, and two rational triples
# with their denominators cleared
STEP_WEIGHTS = tuple(
    Weights.parse(*w).clear_denominators()[0]
    for w in (("1", "1", "1"), ("0", "0", "0"), ("1", "-1", "1"), ("1", "1", "-2"),
              ("1/3", "2/7", "5"), ("13/61", "44/17", "7/90"))
)


class Counted:
    """An int that counts, in a shared one-item list, the products of two
    Counted values it takes part in; a product with a plain int is a
    scalar multiple and is not counted, and x**k counts k - 1 products."""

    def __init__(self, value: int, tally: list):
        self.value, self.tally = value, tally

    def __add__(self, other):
        other = other.value if isinstance(other, Counted) else other
        return Counted(self.value + other, self.tally)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Counted):
            self.tally[0] += 1
            other = other.value
        return Counted(self.value * other, self.tally)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


class Sized:
    """An int that records, in a shared list, the bit length of the larger
    operand of every product of two Sized values.  It has no ``**``, so a
    power of one must be formed by products."""

    def __init__(self, value: int, log: list):
        self.value, self.log = value, log

    def __mul__(self, other):
        if isinstance(other, Sized):
            self.log.append(max(self.value.bit_length(), other.value.bit_length()))
            other = other.value
        return Sized(self.value * other, self.log)

    __rmul__ = __mul__


class ModP:
    """An integer mod the prime p = 2^61 - 1: a ring the package has no
    code for.  An int on either side of ``+``, ``*`` and ``==`` is reduced
    mod p, since an empty product of powers is the int 1."""

    P = 2**61 - 1

    def __init__(self, value: int):
        self.value = value % self.P

    def __add__(self, other):
        return ModP(self.value + (other.value if isinstance(other, ModP) else other))

    __radd__ = __add__

    def __mul__(self, other):
        return ModP(self.value * (other.value if isinstance(other, ModP) else other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return ModP(pow(self.value, k, self.P))

    def __eq__(self, other):
        return self.value == (other.value if isinstance(other, ModP) else other % self.P)

    def __repr__(self):
        return f"ModP({self.value})"


def full_size_products(bases, rows, power_products):
    """The values of ``power_products(bases, rows)`` over Sized bases, and
    how many of its products had an operand longer than all the bases
    together, which no product of bases alone can be."""
    log = []
    values = power_products([Sized(b, log) for b in bases], rows)
    small = sum(b.bit_length() for b in bases)
    return ([v.value if isinstance(v, Sized) else v for v in values],
            sum(1 for bits in log if bits > small))


def components(bundle) -> dict:
    """A bundle's components by name."""
    return {name: getattr(bundle, name) for name in bundle._fields if name != "weights"}


def signed_bundles(seed: int, make, count: int = 3):
    """Bundles of signed integer components, at each of STEP_WEIGHTS:
    ``make(w, parts)`` builds one from a list of random ints."""
    rng = random.Random(seed)
    return [make(w, [rng.randint(-10**6, 10**6) for _ in range(5)])
            for w in STEP_WEIGHTS for _ in range(count)]


def assert_homogeneous_cubic(step, bundles):
    """step(k B) == k^3 step(B), component by component, for k in 2, -3, 77;
    iterating a bundle on its primitive part rests on this identity."""
    for bundle in bundles:
        out = components(step(bundle))
        for k in (2, -3, 7 * 11):
            scaled = bundle._replace(**{name: k * x for name, x in components(bundle).items()})
            got = components(step(scaled))
            for name, x in out.items():
                assert got[name] == k**3 * x, (step.__name__, bundle, k, name)


def plain_fold(step, initial, n: int):
    """The level-n bundle by n - 1 plain steps, with no content split."""
    bundle = initial
    for _ in range(n - 1):
        bundle = step(bundle)
    return bundle


def count_products(step, bundle):
    """The products of two bundle-sized values that one step forms, and
    the step's value, from the same bundle over Counted components."""
    tally = [0]
    counted = bundle._replace(**{name: Counted(x, tally) for name, x in components(bundle).items()})
    out = step(counted)
    values = out._asdict()
    return tally[0], {k: v.value if isinstance(v, Counted) else v for k, v in values.items()}
