"""Weighted matrix-tree machinery: exact Laplacian cofactors and the
Schur-complement decimation pipeline for the hanoi graphs.

Everything here is exact, never floating point.  One sparse elimination
kernel does every elimination: each determinant, and the one Schur
complement, of the rederived decimation map.  It takes ``int`` or
``Fraction`` entries and eliminates on integers: each row is held as its
nonzero integer entries over one positive denominator (a row of ``int``s
as given, over 1, any other cleared once), and a column is cleared from
a row by cross-multiplication with the pivot row, never by division.
Each step pivots on the shortest remaining row, the first given among
rows of one length (off a heap of length and order given, stale entries
skipped), in its column with the fewest remaining entries, preferring
the diagonal.  A reduced Laplacian has at most five entries per row, and
this order keeps the fill-in small.  A cofactor gives its rows farthest
from the deleted vertex first, so that ties sweep toward it (the reverse
Cuthill-McKee order); lambda and the decimation network give theirs in
index order.  A cofactor clears its weights to integers once; at integer
weights it is a ``Fraction`` with denominator 1, and the decimation
pipeline, which runs from level 3, returns an ``int``.

A cofactor's sparsity pattern is fixed by its graph, and only the three
weights change, so it is planned once per graph and deleted vertex
(``CofactorPlan``, the symbolic half of a sparse factorization): a row
template whose entries are integer combinations of a, b and c, and the
kernel's own pivot order and fill on it, recorded from the kernel's
first elimination of the template's whole pattern and compiled into
flat index maps.  A planned cofactor replays them on lists of ints, with
the kernel's arithmetic, and hands its rows to the kernel where a
planned pivot comes out zero.

The decimation map P acts on a 9-component state
``(x1..x3, x4..x6, x7..x9)`` = (original weights, current off-diagonal
couplings, current diagonal entries); the initial state is
``(a, b, c, a, b, c, a+b+c, a+b+c, a+b+c)``.  One application of P stands
for one round of block elimination of the masked Laplacian, whose
determinant picks up the factor D(state)^(3^(k-2)) in the process.
A decimation run (``decimation_run``) keeps, per step, the integer D of
the state cleared to integers and the clearing denominator, and at the
end det lambda_2; the generating function is one product of their
powers, the denominators to negative ones (``Decimation.tree``, a
``FactoredPoly``).  A run starts at level 3: below it there is no step
to take, and the ``schur`` route of ``gf`` is the cofactor route
(``families``).  ``schur_pipeline`` folds a run into that value, and
``verify`` compares the product with the recursion's, multiplying
neither out.

The map is given in closed form by the term tables below, kept as the
paper's text.  When a decimation first runs (``_map_tables``), not at
import, each is built into a Horner scheme and the scheme compiled into
its kernel, one straight-line Python expression over x0..x8.
``_rederive`` recomputes the same map from scratch, on the state
cleared to integers: the kernel eliminates the six non-corner words of the
level-2 network and keeps the three corners, so its determinant is D and
the corner rows, the Schur complement, hold the new coordinates.  The two
routes must agree exactly on random states (``schur_map_divergence``
compares them as integers), and the determinant identity
``det L_k(s) = D(s)^(3^(k-2)) det L_(k-1)(P(s))`` is the final arbiter for
both (``decimation_identity`` checks k = 3 on the cleared state).  Beware
that the initial state satisfies x1=x4, x2=x5, x3=x6 and x7=x8=x9, so
agreement along the nominal orbit alone would prove little; the guards run
on fully generic states.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter

from .algebra import SAMPLE_BOUND, FactoredPoly, Weights, clear_denominators
from .errors import DecimationSingularError
from .graphs import LABELS, LabelledGraph, build_hanoi

# -- the sparse exact elimination kernel -----------------------------------------


def _sparse_det(rows: dict, keep=(), pivots=None):
    """Determinant of a square matrix held as ``{row: {column: entry}}``.

    Rows and columns share one set of keys, and each row holds only its
    nonzero ``int`` or ``Fraction`` entries; the argument is consumed.
    A row is kept as integers over one positive denominator: a row of
    ``int``s is taken as given, over 1, and any other is cleared once by
    the lcm of its entries' denominators.  Each step pivots on the
    shortest remaining row r (the first in the order given on a tie), in
    its column c with the fewest remaining entries (the diagonal on a
    tie, then the row's own order), and clears c from every other row t
    by cross-multiplication, ``t <- r_c t - t_c r`` over ``d_t r_c``,
    then divides out the gcd of t and its denominator.  The shortest row
    is popped from a heap of ``(length, rank in the order given, key)``:
    a row whose length an elimination changes is pushed again, and an
    entry whose row has been pivoted on or has another length by now is
    skipped.  The rows stand for the same rationals as in division-based
    elimination, so an entry cancels to zero, and is dropped, exactly
    where it would there; a row that empties out means the determinant
    is 0.  The determinant is the product of the pivots ``r_c / d_r``,
    formed once at the end, times the sign of the row -> pivot-column
    permutation.

    Keys in ``keep`` are never pivoted on: the determinant is then the
    eliminated block's, 0 once a row has entries in kept columns only,
    and the kept rows, cleared of every pivot column, are the Schur
    complement on the kept keys.  With a nonempty ``keep`` the kernel
    returns ``(det, {k: (row, d_k)})``, each kept row as integers over
    its denominator, meaningful only where det is nonzero.

    Given a dict as ``pivots``, an elimination in which no entry
    cancelled and every row found a pivot leaves its pivot order there,
    ``{row: column}`` in the order pivoted on (``CofactorPlan``).
    """
    dens = {}
    holders = {j: set() for j in rows}  # column -> live rows with an entry there
    rank = {}  # the rows to pivot on -> their place in the order given
    for i, row in rows.items():
        if any(type(x) is not int for x in row.values()):
            ints, dens[i] = clear_denominators(row.values())
            rows[i] = row = dict(zip(row, ints))
        else:
            dens[i] = 1
        for j in row:
            holders[j].add(i)
        if i not in keep:
            rank[i] = len(rank)
    heap = [(len(rows[i]), r, i) for i, r in rank.items()]
    heapify(heap)
    pivot_col = {}
    num = den = 1
    cancelled = False
    while rank:
        length, _, p = heappop(heap)
        row = rows[p]
        if p not in rank or len(row) != length:
            continue
        c = None
        for j in row:
            if j not in keep:
                count = len(holders[j])
                if c is None or count < fewest or (count == fewest and j == p):
                    c, fewest = j, count
        if c is None:
            num, pivot_col = 0, {}
            break
        del rank[p]
        pivot_col[p] = c
        pivot = row[c]
        num *= pivot
        den *= dens[p]
        for j in row:
            holders[j].discard(p)
        rest = [(j, x) for j, x in row.items() if j != c]
        for i in holders[c]:
            target = rows[i]
            before = len(target)
            factor = target.pop(c)
            if pivot != 1:
                target = rows[i] = {j: y * pivot for j, y in target.items()}
            for j, x in rest:
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
                        cancelled = True
            d = dens[i] * pivot
            g = gcd(d, *target.values())
            if d < 0:
                g = -g
            if g != 1:
                target = rows[i] = {j: y // g for j, y in target.items()}
            dens[i] = d // g
            if len(target) != before and i in rank:
                heappush(heap, (len(target), rank[i], i))
    if pivots is not None and not cancelled:
        pivots.update(pivot_col)
    det = Fraction(num * _sign(pivot_col), den)
    return (det, {k: (rows[k], dens[k]) for k in keep}) if keep else det


def _sign(pivot_col: dict) -> int:
    """The sign of the row -> pivot-column permutation ``{row: column}``,
    which it consumes."""
    # a cycle of length L in the permutation is L - 1 transpositions
    transpositions = 0
    while pivot_col:
        start, j = pivot_col.popitem()
        while j != start:
            j = pivot_col.pop(j)
            transpositions += 1
    return -1 if transpositions % 2 else 1


# -- Laplacians and cofactors --------------------------------------------------


class CofactorPlan:
    """The reduced Laplacian of a graph without vertex ``index``, planned
    once for elimination at any weights.

    Its template holds the rows farthest from the deleted vertex first,
    so that on a tie the elimination sweeps toward it (on the 123-vertex
    gaskets this halves the fill-in), and each row's columns, itself
    first and then its neighbours in edge order.  Each entry is read
    from every non-loop edge, whatever its weight, as an integer
    combination of a, b and c, so a zero weight drops entries from the
    kernel's rows (``rows``) but never a row.

    Until its pivots are recorded, a request runs the kernel on its rows.
    The first whose weights make no template entry zero lets the kernel
    record its pivot order in ``pivots``, unless an entry cancelled: the
    kernel's order on the template's pattern, with no second copy of its
    rule.  The next request compiles that order into index maps
    (``_compile``): per pivot, its row and slot, and per row it clears,
    the slot of the pivot column and two ``itemgetter``s that line the
    row and the pivot row up on the row's next columns; ``fill`` counts
    the entries the elimination creates.  From then on a request fills
    the template and replays the plan on lists of ints over per-row
    denominators, with the kernel's arithmetic, and hands its rows to the
    kernel where a planned pivot comes out zero.  So a plan used once
    costs one elimination, as the kernel alone does.
    """

    __slots__ = ("keys", "columns", "triples", "codes", "pivots", "fill", "sign", "steps")

    def __init__(self, g: LabelledGraph, index: int = 0):
        order = g.breadth_first(index)
        if len(order) != len(g.vertices):
            raise ValueError("graph must be connected ignoring loops")
        rows = {i: {} for i in reversed(order)}
        for e in g.nonloop_edges():
            unit = 1 << _FIELD * LABELS.index(e.label)
            for u, v in ((e.u, e.v), (e.v, e.u)):
                row = rows[u]
                row[u] = row.get(u, 0) + unit
                row[v] = row.get(v, 0) - unit
        del rows[index]
        for row in rows.values():
            row.pop(index, None)
        slots = {}  # entry -> its slot in the values; slot 0 holds 0
        getters = {}
        self.keys = tuple(rows)
        self.columns = tuple(map(tuple, rows.values()))
        self.codes = tuple(
            _getter(getters, *(slots.setdefault(x, len(slots) + 1) for x in row.values()), 0)
            for row in rows.values())
        self.triples = tuple(map(_edge_counts, slots))
        self.pivots = self.steps = None

    def rows(self, w: Weights) -> dict:
        """The kernel's rows at integer weights w, only the nonzero entries."""
        return self._rows(self._values(w))

    def det(self, w: Weights) -> Fraction:
        """The reduced Laplacian's determinant at integer weights w."""
        values = self._values(w)
        if self.steps is None:
            if self.pivots is None:
                # only the template's whole pattern gives the kernel's order on it
                pivots = {} if all(values[1:]) else None
                det = _sparse_det(self._rows(values), pivots=pivots)
                self.pivots = pivots or None
                return det
            self._compile()
        det = self._replay(values)
        return _sparse_det(self._rows(values)) if det is None else det

    def _values(self, w) -> list:
        """Each template entry at w, in its slot; 0 in slot 0."""
        a, b, c = w
        return [0, *(a * x + b * y + c * z for x, y, z in self.triples)]

    def _rows(self, values) -> dict:
        return {k: {j: x for j, x in zip(cols, get(values)) if x}
                for k, cols, get in zip(self.keys, self.columns, self.codes)}

    def _compile(self):
        """Compile the recorded pivot order into the plan's index maps,
        following the elimination on the template's pattern, where
        nothing cancels.  A row is laid out as its live columns and one 0
        slot after them, which each getter reads for a column the row
        lacks."""
        at = {k: n for n, k in enumerate(self.keys)}
        layouts = list(map(list, self.columns))
        holders = {k: set() for k in self.keys}  # column -> live rows holding it
        for n, cols in enumerate(layouts):
            for j in cols:
                holders[j].add(n)
        getters = {}
        steps = []
        fill = 0
        for key, c in self.pivots.items():
            p = at[key]
            row = layouts[p]
            for j in row:
                holders[j].discard(p)
            targets = []
            for i in sorted(holders[c]):
                old = layouts[i]
                added = [j for j in row if j not in old]
                new = [j for j in old if j != c] + added
                for j in added:
                    holders[j].add(i)
                fill += len(added)
                targets += i, old.index(c), _lineup(getters, old, new), _lineup(getters, row, new)
                layouts[i] = new
            steps.append((p, row.index(c), tuple(targets)))
        self.sign = _sign(dict(self.pivots))
        self.fill = fill
        self.steps = tuple(steps)

    def _replay(self, values):
        """The determinant by the plan, or None where a pivot is zero."""
        rows = [get(values) for get in self.codes]
        dens = [1] * len(rows)
        num = den = 1
        for p, c, targets in self.steps:
            row = rows[p]
            pivot = row[c]
            if not pivot:
                return None
            num *= pivot
            den *= dens[p]
            flat = iter(targets)
            for i, ic, own, other in zip(flat, flat, flat, flat):
                target = rows[i]
                factor = target[ic]
                target = [pivot * y - factor * x for y, x in zip(own(target), other(row))]
                d = dens[i] * pivot
                g = gcd(d, *target)
                if d < 0:
                    g = -g
                if g != 1:
                    target = [y // g for y in target]
                rows[i] = target
                dens[i] = d // g
        return Fraction(num * self.sign, den)


# a template entry counts the edges it sums by label, in fields of 16 bits,
# negated off the diagonal
_FIELD = 16


def _edge_counts(entry: int) -> tuple:
    """A template entry as its coefficients of a, b and c."""
    sign, counts = (1, entry) if entry > 0 else (-1, -entry)
    mask = (1 << _FIELD) - 1
    return tuple(sign * (counts >> _FIELD * k & mask) for k in range(3))


def _getter(seen: dict, *slots):
    """One ``itemgetter`` per tuple of slots, shared through ``seen``."""
    get = seen.get(slots)
    if get is None:
        get = seen[slots] = itemgetter(*slots)
    return get


def _lineup(seen: dict, layout: list, columns: list):
    """The getter that reads a row laid out as ``layout``, with its 0 slot
    after it, at ``columns`` and then at the 0 slot; a column the row
    lacks reads the 0 slot."""
    zero = len(layout)
    return _getter(seen, *(layout.index(j) if j in layout else zero for j in columns), zero)


def tree_gf_cofactor(g: LabelledGraph, w: Weights, index: int = 0,
                     plan: CofactorPlan | None = None) -> Fraction:
    """Weighted spanning-tree generating function at w, via the cofactor
    that deletes vertex ``index``.

    The weights are cleared once, to the integers L w, and the minor
    there, homogeneous of degree |V| - 1, divided by L^(|V| - 1).  The
    minor is taken by ``plan``, which must be the graph's without
    ``index`` (``families.Level`` keeps one per graph), or else by a plan
    built for this call, which runs the kernel once
    (``CofactorPlan``): a kept plan is replayed from its second
    request on, and falls back to the kernel where a planned pivot
    vanishes."""
    if not 0 <= index < len(g.vertices):
        raise ValueError(f"index {index} is not a vertex of a graph on {len(g.vertices)} vertices")
    iw, scale = w.clear_denominators()
    if plan is None:
        plan = CofactorPlan(g, index)
    det = plan.det(iw)
    return det if scale == 1 else det / scale ** (len(g.vertices) - 1)


# -- the decimation state and the closed-form rational map ---------------------


class SchurState(namedtuple("SchurState", [f"x{i}" for i in range(1, 10)])):
    """The 9-component decimation state (see the module docstring)."""

    __slots__ = ()

    @classmethod
    def initial(cls, w: Weights) -> "SchurState":
        s = w.a + w.b + w.c
        return cls(w.a, w.b, w.c, w.a, w.b, w.c, s, s, s)

    @classmethod
    def random(cls, rng) -> "SchurState":
        """A generic state: each coordinate a numerator over a denominator
        drawn from 1..SAMPLE_BOUND."""
        bound = SAMPLE_BOUND
        return cls(*(Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(9)))


_TERM_RE = re.compile(r"x(\d)(?:\^(\d+))?")


def _parse_terms(text: str):
    """Parse lines like ``- 2 x1 x4^2 x5`` into (coeff, exponent-9-tuple)."""
    terms = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        sign = 1
        if line[0] in "+-":
            sign = -1 if line[0] == "-" else 1
            line = line[1:].strip()
        coeff = sign
        first = line.split()[0]
        if first.isdigit():
            coeff = sign * int(first)
            line = line[len(first) :].strip()
        exps = [0] * 9
        for var, power in _TERM_RE.findall(line):
            exps[int(var) - 1] += int(power) if power else 1
        terms.append((coeff, tuple(exps)))
    return tuple(terms)


# Denominator D of the decimation map, 19 terms, in the paper's text; the
# tables are parsed, built into Horner schemes and compiled to kernels on
# first use (_map_tables).
D_TEXT = """
    + x7^2 x8^2 x9^2
    - x3^2 x8^2 x9^2
    - x4^2 x7 x8 x9^2
    - x2^2 x7^2 x9^2
    + x2^2 x3^2 x9^2
    - x5^2 x7 x8^2 x9
    + x3^2 x6^2 x8 x9
    - x6^2 x7^2 x8 x9
    + x4^2 x5^2 x8 x9
    + x4^2 x6^2 x7 x9
    + x2^2 x5^2 x7 x9
    - x1^2 x7^2 x8^2
    + x1^2 x3^2 x8^2
    + x5^2 x6^2 x7 x8
    + x1^2 x4^2 x7 x8
    - 2 x1 x2 x3 x4 x5 x6
    - x1^2 x2^2 x3^2
    + x1^2 x2^2 x7^2
    - x4^2 x5^2 x6^2
    """

# Numerators of P4..P9 over D (P7..P9 additionally carry the x7/x8/x9 head).
P_TEXT = {
    4: """
        + 2 x2 x3 x4^2 x5 x6 x9
        + x1 x4 x5^2 x7 x8^2
        - x1 x4^3 x5^2 x8
        - x1 x2^2 x4 x5^2 x7
        + x2 x3 x4^3 x9^2
        - x1 x4^4 x5 x6
        - x1^2 x2 x3 x4^3
        + x1 x5 x6 x7^2 x8^2
        - x1 x3^2 x5 x6 x8^2
        - x1 x2^2 x5 x6 x7^2
        + x1 x2^2 x3^2 x5 x6
        + x2 x3 x4 x5^2 x6^2
        - x1 x3^2 x4 x6^2 x8
        + x1 x4 x6^2 x7^2 x8
        - x1 x4^3 x6^2 x7
        """,
    5: """
        + x1 x3 x5^3 x8^2
        - x1 x2^2 x3 x5^3
        - x2 x4 x5^4 x6
        + x2 x4^2 x5 x7 x9^2
        - x2 x4^2 x5^3 x9
        + 2 x1 x3 x4 x5^2 x6 x8
        - x1^2 x2 x4^2 x5 x7
        + x2 x5 x6^2 x7^2 x9
        - x2 x3^2 x5 x6^2 x9
        - x2 x5^3 x6^2 x7
        + x2 x4 x6 x7^2 x9^2
        - x2 x3^2 x4 x6 x9^2
        - x1^2 x2 x4 x6 x7^2
        + x1 x3 x4^2 x5 x6^2
        + x1^2 x2 x3^2 x4 x6
        """,
    6: """
        + x3 x4 x5 x8^2 x9^2
        - x2^2 x3 x4 x5 x9^2
        - x1^2 x3 x4 x5 x8^2
        + x1^2 x2^2 x3 x4 x5
        + x1 x2 x4^2 x5^2 x6
        + 2 x1 x2 x4 x5 x6^2 x7
        + x3 x5^2 x6 x8^2 x9
        - x3 x5^2 x6^3 x8
        - x2^2 x3 x5^2 x6 x9
        - x1^2 x3 x4^2 x6 x8
        + x3 x4^2 x6 x8 x9^2
        - x3 x4^2 x6^3 x9
        - x3 x4 x5 x6^4
        + x1 x2 x6^3 x7^2
        - x1 x2 x3^2 x6^3
        """,
    7: """
        - x5^2 x7^2 x8^2 x9
        + x3^2 x5^2 x8^2 x9
        + x2^2 x5^2 x7^2 x9
        - x2^2 x3^2 x5^2 x9
        + x5^4 x7 x8^2
        - x4^2 x5^4 x8
        - x2^2 x5^4 x7
        - x4^2 x7^2 x8 x9^2
        + 2 x4^2 x5^2 x7 x8 x9
        + x3^2 x4^2 x8 x9^2
        + x4^4 x7 x9^2
        - x4^4 x5^2 x9
        - x1^2 x3^2 x4^2 x8
        + x1^2 x4^2 x7^2 x8
        - x1^2 x4^4 x7
        + 2 x3^2 x4 x5 x6 x8 x9
        - 2 x4 x5 x6 x7^2 x8 x9
        + 2 x4^3 x5 x6 x7 x9
        + 2 x4 x5^3 x6 x7 x8
        - 2 x4^3 x5^3 x6
        - 2 x1 x2 x3 x4^2 x5^2
        """,
    8: """
        - x4^2 x6^4 x7
        - x3^2 x6^4 x8
        - 2 x4^3 x5 x6^3
        - x4^4 x6^2 x9
        - x1^2 x4^4 x8
        + x4^4 x8 x9^2
        + x2^2 x4^2 x7 x9^2
        + x3^2 x6^2 x8^2 x9
        - x2^2 x3^2 x6^2 x9
        + 2 x4^2 x6^2 x7 x8 x9
        - x1^2 x2^2 x4^2 x7
        + x1^2 x4^2 x7 x8^2
        - x4^2 x7 x8^2 x9^2
        - 2 x1 x2 x3 x4^2 x6^2
        + 2 x4^3 x5 x6 x8 x9
        - 2 x4 x5 x6 x7 x8^2 x9
        + 2 x4 x5 x6^3 x7 x8
        + 2 x2^2 x4 x5 x6 x7 x9
        - x6^2 x7^2 x8^2 x9
        + x2^2 x6^2 x7^2 x9
        + x6^4 x7^2 x8
        """,
    9: """
        + x5^4 x8^2 x9
        - x2^2 x5^4 x9
        - x5^4 x6^2 x8
        + x1^2 x5^2 x7 x8^2
        - x1^2 x2^2 x5^2 x7
        - x5^2 x7 x8^2 x9^2
        + x2^2 x5^2 x7 x9^2
        + 2 x5^2 x6^2 x7 x8 x9
        - 2 x1 x2 x3 x5^2 x6^2
        + 2 x4 x5^3 x6 x8 x9
        - 2 x4 x5^3 x6^3
        + 2 x1^2 x4 x5 x6 x7 x8
        - 2 x4 x5 x6 x7 x8 x9^2
        + 2 x4 x5 x6^3 x7 x9
        - x3^2 x6^4 x9
        - x5^2 x6^4 x7
        + x1^2 x6^2 x7^2 x8
        - x1^2 x3^2 x6^2 x8
        - x6^2 x7^2 x8 x9^2
        + x3^2 x6^2 x8 x9^2
        + x6^4 x7^2 x9
        """,
}


def _horner(terms):
    """A table as a nested Horner scheme: an int for a constant, else
    ``(v, Q, R)`` standing for ``x_v Q + R``, where x_v is the coordinate
    in the most terms (the lowest index on a tie), Q the scheme of those
    terms with one x_v taken out and R the scheme of the others."""
    counts = [0] * 9
    for _, exps in terms:
        for i, e in enumerate(exps):
            if e:
                counts[i] += 1
    if not any(counts):
        return sum(c for c, _ in terms)
    v = counts.index(max(counts))
    inner = [(c, exps[:v] + (exps[v] - 1,) + exps[v + 1 :]) for c, exps in terms if exps[v]]
    rest = [(c, exps) for c, exps in terms if not exps[v]]
    return v, _horner(inner), _horner(rest)


def _source(scheme) -> str:
    """A Horner scheme as one Python expression over x0..x8 that forms
    the scheme's products and no others; a factor 1 and a remainder 0
    are left out."""
    if type(scheme) is int:
        return str(scheme)
    v, inner, rest = scheme
    product = f"x{v}" if inner == 1 else f"x{v} * ({_source(inner)})"
    return product if rest == 0 else f"{product} + ({_source(rest)})"


def _compile(scheme):
    """A Horner scheme as a kernel: a function of the nine coordinates,
    compiled once into straight-line code."""
    return eval(f"lambda {', '.join(f'x{i}' for i in range(9))}: {_source(scheme)}")


# The tables are evaluated as Horner schemes, compiled to straight-line
# kernels; a scheme forms about half the products the terms one by one
# would, and its kernel makes no Python call per node.  They are
# evaluated on integers t = delta * s, where delta is the lcm of the
# state's denominators.  D is homogeneous of degree 6 and each P numerator
# of degree 7, so D(s) = D(t) / delta^6, and a new coordinate is an
# integer over delta * D(t), reduced once.
@cache
def _map_tables() -> dict:
    """The tables of the map as ``{"D": (terms, kernel), 4: (terms,
    kernel), ..., 9: ...}``, each text parsed, built into its Horner scheme
    and compiled once, when a decimation first needs it, and not at
    import."""
    tables = {}
    for key, text in {"D": D_TEXT, **P_TEXT}.items():
        terms = _parse_terms(text)
        tables[key] = terms, _compile(_horner(terms))
    return tables


def _cleared_denominator(s: SchurState):
    """The state cleared to integers t over delta, and D(t)."""
    t, delta = clear_denominators(s)
    return t, delta, _map_tables()["D"][1](*t)


def _map_numerators(t, d: int) -> list[int]:
    """The new x4..x9 times delta * D(t): integers, from t and d = D(t)."""
    tables = _map_tables()
    heads = (0, 0, 0, t[6] * d, t[7] * d, t[8] * d)
    return [head + tables[i][1](*t) for i, head in enumerate(heads, start=4)]


def _map_cleared(s: SchurState, t, delta: int, d: int) -> SchurState:
    return SchurState(s.x1, s.x2, s.x3, *(Fraction(n, delta * d) for n in _map_numerators(t, d)))


def schur_map(s: SchurState) -> SchurState:
    """One decimation step; fixes x1..x3, maps the other six rationally."""
    t, delta, d = _cleared_denominator(s)
    if d == 0:
        raise DecimationSingularError("decimation denominator vanished")
    return _map_cleared(s, t, delta, d)


# -- the decimation network and the independent rederivation of the map --------


@cache
def _network_edges(k: int, loops: bool):
    """First letters of the level-k hanoi words, the edges as ``(u, v, label
    index, is_loop)`` and each row's columns in index order, once per level."""
    g = build_hanoi(k, include_loops=loops)
    block = tuple(int(word[0]) for word in g.vertices)
    order = tuple(tuple(sorted({i}.union(*({e.u, e.v} for e in g.edges if i in (e.u, e.v)))))
                  for i in range(len(block)))
    return block, tuple((e.u, e.v, LABELS.index(e.label), e.is_loop) for e in g.edges), order


def _state_network(k: int, s: SchurState, loops: bool):
    """Rows of the level-k hanoi graph weighted by a decimation state, as
    the kernel's ``{row: {column: entry}}`` with only the nonzero entries,
    rows and the columns within each in index order (``_network_edges``).

    An edge inside a first-letter block weighs x1..x3 by its label, an
    edge between two blocks x4..x6; the diagonal holds x7..x9 by block,
    less the weight of any loop."""
    block, edges, order = _network_edges(k, loops)
    rows = [{i: s[6 + b]} for i, b in enumerate(block)]
    for u, v, label, is_loop in edges:
        if is_loop:
            rows[u][u] -= s[label]
        else:
            rows[u][v] = rows[v][u] = -s[label if block[u] == block[v] else 3 + label]
    return {i: {j: row[j] for j in order[i] if row[j]} for i, row in enumerate(rows)}


# a decimation step keeps the level-2 corners 00, 11, 22 and eliminates
# the six other words
_CORNERS = (0, 4, 8)


def _rederive(t):
    """The inner determinant of the level-2 network at the integer state
    t, and the new x4..x9 at t as (numerator, denominator) pairs, which
    are meaningful only where it is nonzero: the Schur complement on the
    corners, read off one kernel call."""
    inner, kept = _sparse_det(_state_network(2, t, loops=False), _CORNERS)
    (r0, d0), (r4, d4), (r8, d8) = (kept[k] for k in _CORNERS)
    pairs = ((-r0.get(4, 0), d0), (-r0.get(8, 0), d0), (-r4.get(8, 0), d4),
             (r0.get(0, 0), d0), (r4.get(4, 0), d4), (r8.get(8, 0), d8))
    return inner.numerator, pairs


def schur_map_divergence(s: SchurState) -> dict:
    """Compare the term-table map against the rederived one at a state.

    Both are read in integers on t = delta s, cleared once: the tables
    give D(t) and the new x4..x9 over delta D(t), one elimination the
    inner determinant and the Schur complement on the corners.  The maps
    are homogeneous, so this is the comparison at s.  Returns {} on exact
    agreement, otherwise the differing coordinates as ``{"x4": (table
    value, rederived value), ...}`` plus any denominator mismatch under
    key ``"D"``, as fractions at s.  Where D or the inner determinant
    vanishes the coordinates are undefined, and D is compared alone.
    """
    t, delta, d = _cleared_denominator(s)
    inner, rederived = _rederive(t)
    out = {}
    if d != inner:
        out["D"] = (str(Fraction(d, delta**6)), str(Fraction(inner, delta**6)))
    if d and inner:
        for i, x, (n, q) in zip(range(4, 10), _map_numerators(t, d), rederived):
            if x * q != n * d:
                out[f"x{i}"] = (str(Fraction(x, delta * d)), str(Fraction(n, delta * q)))
    return out


# -- the masked matrices ----------------------------------------------------------


def lambda_matrix(k: int, s: SchurState) -> dict:
    """Masked 3^k x 3^k matrix whose determinant drives the decimation,
    as the kernel's rows (``_state_network``).

    At the initial state this is the Laplacian of the level-k hanoi graph
    with the first row and column cleared down to the single (a+b) entry.
    """
    if k < 2:
        raise ValueError("the masked matrix is defined for level >= 2")
    rows = _state_network(k, s, loops=True)
    for row in rows.values():
        row.pop(0, None)
    corner = s.x1 + s.x2
    rows[0] = {0: corner} if corner else {}
    return rows


def decimation_identity(s: SchurState) -> bool:
    """Whether ``det lambda_3(s) = D(s)^3 det lambda_2(P(s))`` holds at s,
    checked in integers on t = delta s: lambda_k is linear in the state,
    so with u = delta D(t) P(s) it reads
    ``det lambda_3(t) D(t)^6 = det lambda_2(u)``, a polynomial identity in
    t that holds where D(t) = 0 too."""
    t, _, d = _cleared_denominator(s)
    u = SchurState(*(x * d for x in t[:3]), *_map_numerators(t, d))
    return _sparse_det(lambda_matrix(3, SchurState(*t))) * d**6 == _sparse_det(lambda_matrix(2, u))


# -- the full pipeline ----------------------------------------------------------


class Decimation(namedtuple("Decimation", "steps delta det")):
    """A decimation run to level n >= 3 at weights w.  Step k = 0..n-3
    cleared the state s_k to integers t_k over delta_k and took D(t_k),
    so D_k = D(t_k) / delta_k^6; ``steps`` holds the pairs (D(t_k),
    delta_k).  ``delta`` clears the last state s_(n-2), and ``det``, a
    Fraction, is det lambda_2 there.  The spanning-tree generating
    function is
    ``prod_k (D(t_k) / delta_k^6)^(3^(n-2-k)) * det / (a+b)`` (``tree``)."""

    __slots__ = ()

    def tree(self, w: Weights) -> FactoredPoly:
        """The generating function as one product of powers, not formed:
        each D(t_k) and delta_k^-6 to the power 3^(n-2-k), then det and
        (a+b)^-1.  At integer weights every base is an int
        (``algebra.products_equal``)."""
        factors = []
        for k, (dt, delta) in enumerate(self.steps):
            e = 3 ** (len(self.steps) - k)
            factors += [(dt, e), (delta, -6 * e)]
        det = self.det
        return FactoredPoly(None, [*factors, (det.numerator, 1), (det.denominator, -1),
                                   (w.a + w.b, -1)])


def decimation_run(n: int, w: Weights) -> Decimation:
    """The decimation run to level n >= 3 at w (``Decimation``): n - 2
    applications of the map from the initial state, then the level-2
    masked determinant."""
    if n < 3:
        raise ValueError("the decimation runs from level 3")
    state = SchurState.initial(w)
    steps = []
    for k in range(n - 2):
        # one clearing and one D per step, shared by D_k and the map
        t, delta, dt = _cleared_denominator(state)
        if dt == 0:
            raise DecimationSingularError(
                f"denominator vanished at decimation step {k}"
            )
        steps.append((dt, delta))
        state = _map_cleared(state, t, delta, dt)
    return Decimation(tuple(steps), clear_denominators(state)[1],
                      _sparse_det(lambda_matrix(2, state)))


def schur_pipeline(n: int, w: Weights):
    """Spanning-tree generating function of the level-n hanoi graph at w,
    n >= 3, by repeated decimation; returns (value, denominator orbit).

    The value is an int at integer weights.  It folds the run
    (``decimation_run``, which refuses levels below 3): the factor
    prod_k D_k^(3^(n-k-2)) is the cube of a root built in Horner order,
    root <- root^3 D_k.  Each step divides the root by delta_k^2 before
    the cube and multiplies in the integer D(t_k) after it: a denominator
    cancels against a number a third the size of the factor, while it is
    small.  The determinant at the end, homogeneous
    of degree 9 in the state, is scaled to an integer by delta^9 in the
    same way.

    The fold is kept, and not ``FactoredPoly.values`` of
    ``Decimation.tree``, for speed: at levels 3-10 the one chain over
    the rationals took 1.3-3 times as long, and a quotient formed after
    refining the bases into coprime ones was twice as fast from level 9
    up but 2-4 times slower at levels 3-6.
    """
    run = decimation_run(n, w)
    root = Fraction(1)
    for dt, delta in run.steps:
        root = (root / delta**2) ** 3 * dt
    cube = run.delta**3
    det = run.det * cube**3
    orbit = [Fraction(dt, delta**6) for dt, delta in run.steps]
    value = (root / cube) ** 3 * det / (w.a + w.b)
    return (value.numerator if value.denominator == 1 else value), orbit
