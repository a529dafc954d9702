"""Weighted matrix-tree machinery: exact Laplacian cofactors and the
Schur-complement decimation pipeline for the hanoi graphs.

Everything here is exact, never floating point.  Every determinant, and
the one Schur complement of the rederived decimation map, is one sparse
elimination on integers: planned on the sparsity pattern alone
(``_steps``, the one pivot rule, compiled with its fill into index maps
and kept by ``_plan``), then replayed on rows of ints over positive
denominators by cross-multiplication, never by division (``_replay``);
where a planned pivot comes out 0, the live rows are planned again from
their nonzero entries.  A ``Template`` is planned once: a cofactor's
reduced Laplacian in a, b and c, kept per graph (``families.Level``),
and the decimation networks in x1..x9, kept per level.  A cofactor
clears its weights to integers once; at integer weights it is a
``Fraction`` with denominator 1, and the decimation pipeline, which runs
from level 3, returns an ``int``.

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
cleared to integers: one elimination takes the six non-corner words of the
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

# -- the sparse exact elimination: one pivot rule, planned and replayed ---------


_Plan = namedtuple("_Plan", "keys layouts steps pivots sign keep")


def _plan(pattern: dict, keep=()) -> _Plan:
    """The ``_steps`` on the sparsity ``pattern``, ``{row: [column, ...]}``, kept."""
    pivots = []
    steps = tuple(_steps(pattern, keep, pivots, {}))
    return _Plan(tuple(pattern), tuple(map(tuple, pattern.values())), steps, tuple(pivots),
                 _sign(pivots, pattern, keep), keep)


def _steps(pattern: dict, keep, pivots: list, dropped: dict):
    """The elimination's steps on the sparsity ``pattern`` alone (rows
    and columns keys of one kind), each planned when it is asked for.  A
    step pivots on the shortest remaining row p, the first given on a tie
    (off a heap of ``(length, rank, row)``, stale entries skipped), in its
    column c with the fewest remaining entries, the diagonal and then the
    row's own order on a tie; keys in ``keep`` are never pivoted on.  Each
    other row t holding c loses c and gains the columns of p it lacks, in
    p's order.  The steps end early where a row has no column to pivot
    on: the matrix is singular at any entries.  A step is ``(p, slot of c
    in p, targets, new layouts)``, four items per target t: t, the slot of
    c in t, and getters that line t and p up on t's new columns, each row
    laid out as its columns and a 0 slot.  Once the next step is asked
    for, a step's ``(row, column)`` keys join ``pivots``, unless its row is
    in ``dropped`` by then, as the slots it keeps: the step is then not
    taken, and the row keeps only those entries."""
    keys = tuple(pattern)
    layouts = [dict(zip(cols, range(len(cols)))) for cols in pattern.values()]  # column -> slot
    holders = {}  # column -> live rows holding it
    rank = {}  # the rows to pivot on -> their place in the order given
    for i, (key, layout) in enumerate(zip(keys, layouts)):
        for j in layout:
            holders.setdefault(j, set()).add(i)
        if key not in keep:
            rank[i] = len(rank)
    heap = [(len(layouts[i]), r, i) for i, r in rank.items()]
    heapify(heap)
    getters = {}
    while rank:
        length, _, p = heappop(heap)
        row = layouts[p]
        if p not in rank or len(row) != length:
            continue
        c = None
        for j in row:
            if j not in keep:
                count = len(holders[j])
                if c is None or count < fewest or (count == fewest and j == keys[p]):
                    c, fewest = j, count
        if c is None:
            return
        targets, changed = [], []
        zero = len(row)
        for i in holders[c] - {p}:
            old = layouts[i]
            new = [j for j in old if j != c]
            other = [row.get(j, zero) for j in new]  # p's slots on t's new columns
            for j, slot in row.items():
                if j not in old:
                    new.append(j)
                    other.append(slot)
            ic, end = old[c], len(old)
            own = _getter(getters, *range(ic), *range(ic + 1, end), *[end] * (len(new) + 2 - end))
            targets += i, ic, own, _getter(getters, *other, zero)
            changed.append(new)
        yield p, row[c], tuple(targets), tuple(map(tuple, changed))
        if p in dropped:
            columns = list(row)
            layouts[p] = {columns[n]: m for m, n in enumerate(dropped.pop(p))}
            for j in row.keys() - layouts[p].keys():
                holders[j].discard(p)
            heappush(heap, (len(layouts[p]), rank[p], p))
            continue
        del rank[p]
        pivots.append((keys[p], c))
        for j in row:
            holders[j].discard(p)
        for i, new in zip(targets[::4], changed):
            end = len(layouts[i])
            for j in new[end - 1:]:  # the columns t gained
                holders[j].add(i)
            if len(new) != end and i in rank:
                heappush(heap, (len(new), rank[i], i))
            layouts[i] = dict(zip(new, range(len(new))))


def _getter(seen: dict, *slots):
    """The ``itemgetter`` of the slots, shared through ``seen``; a slice for one slot."""
    get = seen.get(slots)
    if get is None:
        one = slice(slots[0], slots[0] + 1)
        get = seen[slots] = itemgetter(*slots) if len(slots) > 1 else itemgetter(one)
    return get


def _layouts(layouts, steps) -> list:
    """The rows' layouts after the steps."""
    layouts = list(layouts)
    for _, _, targets, changed in steps:
        for i, layout in zip(targets[::4], changed):
            layouts[i] = layout
    return layouts


def _replay(plan: _Plan, rows: list, dens: list):
    """The determinant of the rows, lists of ints laid out as the plan's,
    over the positive ``dens`` (both consumed): a pivot row p clears its
    column c from each target t by ``t <- p_c t - t_c p`` over ``d_t p_c``,
    the gcd divided out.  At a planned pivot 0, the live rows are planned
    again from their nonzero entries, a step at a time, and a pivot 0
    after that drops its row's zero entries (``_steps``).  With kept keys
    the result is ``(det, {k: (row, d_k)})``, each kept row's nonzero
    entries as ints over its denominator: where det is nonzero, the Schur
    complement."""
    keys, layouts, steps, pivots = plan.keys, plan.layouts, plan.steps, []
    dropped = {}  # a row whose pivot was 0 -> the slots of its nonzero entries
    num = den = 1
    while True:
        done = []
        for step in steps:
            p, c, targets, _ = step
            row = rows[p]
            pivot = row[c]
            if not pivot:
                if steps is plan.steps:
                    break
                dropped[p] = [n for n, x in enumerate(row) if x]
                rows[p] = [x for x in row if x] + [0]
                continue
            done.append(step)
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
        else:
            break
        pivots = list(plan.pivots[:len(done)])
        pivoted = {step[0] for step in done}
        live = {keys[i]: [(j, x) for j, x in zip(layout, rows[i]) if x]
                for i, layout in enumerate(_layouts(layouts, done)) if i not in pivoted}
        dens = [d for i, d in enumerate(dens) if i not in pivoted]
        rows = [[x for _, x in row] + [0] for row in live.values()]
        keys, layouts = tuple(live), [[j for j, _ in row] for row in live.values()]
        steps = _steps(dict(zip(keys, layouts)), plan.keep, pivots, dropped)
    sign = plan.sign if steps is plan.steps else _sign(pivots, plan.keys, plan.keep)
    det = Fraction(num * sign, den)
    if not plan.keep:
        return det
    return det, {key: ({j: x for j, x in zip(layout, rows[i]) if x}, dens[i])
                 for i, (key, layout) in enumerate(zip(keys, _layouts(layouts, done)))
                 if key in plan.keep}


def _sparse_det(rows: dict, keep=()):
    """Determinant of a square matrix held as ``{row: {column: entry}}``,
    only its nonzero ``int`` or ``Fraction`` entries, by the plan of its
    pattern, with keys in ``keep`` never pivoted on (``_replay``)."""
    plan = _plan({key: list(row) for key, row in rows.items()}, keep)
    return _replay(plan, *_cleared([[*row.values(), 0] for row in rows.values()]))


def _cleared(rows: list) -> tuple:
    """Rows of ``int``s over 1, and any other cleared once by its lcm."""
    dens = [1] * len(rows)
    for n, row in enumerate(rows):
        if any(type(x) is not int for x in row):
            rows[n], dens[n] = clear_denominators(row)
    return rows, dens


def _sign(pivots, keys, keep) -> int:
    """The sign of the permutation of the pivots' ``(row, column)`` keys,
    0 where a row of ``keys`` not in ``keep`` took no pivot."""
    if len(pivots) < sum(key not in keep for key in keys):
        return 0
    pivot_col = dict(pivots)
    # a cycle of length L in the permutation is L - 1 transpositions
    transpositions = 0
    while pivot_col:
        start, j = pivot_col.popitem()
        while j != start:
            j = pivot_col.pop(j)
            transpositions += 1
    return -1 if transpositions % 2 else 1


class Template:
    """Rows ``{row: {column: form}}`` whose entries are integer linear
    forms in a tuple of parameters, one coefficient each, planned once on
    their whole pattern with ``keep`` as ``_sparse_det`` takes it.  Each
    distinct form is evaluated once, into a slot of the values, and each
    row read off them by one getter; a form that comes out 0 stays."""

    __slots__ = ("forms", "row_getters", "plan")

    def __init__(self, rows: dict, keep=()):
        slots = {}  # form -> its slot in the values; slot 0 holds 0
        getters = {}
        self.row_getters = tuple(
            _getter(getters, *(slots.setdefault(form, len(slots) + 1) for form in row.values()), 0)
            for row in rows.values())
        self.forms = tuple(tuple((i, k) for i, k in enumerate(form) if k) for form in slots)
        self.plan = _plan({key: list(row) for key, row in rows.items()}, keep)

    def values(self, params) -> list:
        """Each form at the parameters, in its slot; 0 in slot 0."""
        values = [0]
        for (i, k), *rest in self.forms:
            x = params[i] if k == 1 else k * params[i]
            for i, k in rest:
                x += params[i] if k == 1 else k * params[i]
            values.append(x)
        return values

    def rows(self, params) -> dict:
        """The rows at the parameters, only their nonzero entries."""
        values = self.values(params)
        return {key: {j: x for j, x in zip(cols, get(values)) if x}
                for key, cols, get in zip(self.plan.keys, self.plan.layouts, self.row_getters)}

    def det(self, params):
        """The determinant at the parameters; rows not all ``int`` cleared once."""
        values = self.values(params)
        rows = [get(values) for get in self.row_getters]
        if all(type(x) is int for x in values):
            return _replay(self.plan, rows, [1] * len(rows))
        return _replay(self.plan, *_cleared(rows))


# -- Laplacians and cofactors --------------------------------------------------


def cofactor_template(g: LabelledGraph, index: int = 0) -> Template:
    """The reduced Laplacian of a graph without vertex ``index``, a
    template in (a, b, c) whose entries count the non-loop edges they sum
    by label, negated off the diagonal, whatever the weights; rows run
    farthest from the deleted vertex first (this halves the fill-in on the
    123-vertex gaskets), each itself and then its neighbours in edge order."""
    order = g.breadth_first(index)
    if len(order) != len(g.vertices):
        raise ValueError("graph must be connected ignoring loops")
    rows = {i: {} for i in reversed(order)}
    for e in g.nonloop_edges():
        label = LABELS.index(e.label)
        for u, v in ((e.u, e.v), (e.v, e.u)):
            rows[u].setdefault(u, [0, 0, 0])[label] += 1
            rows[u].setdefault(v, [0, 0, 0])[label] -= 1
    del rows[index]
    return Template({i: {j: tuple(form) for j, form in row.items() if j != index}
                     for i, row in rows.items()})


def tree_gf_cofactor(g: LabelledGraph, w: Weights, index: int = 0,
                     template: Template | None = None) -> Fraction:
    """Weighted spanning-tree generating function at w, via the cofactor
    that deletes vertex ``index``: the determinant of ``template``, which
    must be the graph's without ``index`` (``families.Level`` keeps one
    per graph), or else of one planned for this call, at the integers L w,
    divided by L^(|V| - 1), for it is homogeneous of degree |V| - 1."""
    if not 0 <= index < len(g.vertices):
        raise ValueError(f"index {index} is not a vertex of a graph on {len(g.vertices)} vertices")
    iw, scale = w.clear_denominators()
    if template is None:
        template = cofactor_template(g, index)
    det = template.det(iw)
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


# -- the decimation networks: the rederived map and the masked matrices ------------


@cache
def _network(k: int, loops: bool, masked: bool, keep=()) -> Template:
    """The level-k hanoi graph weighted by a decimation state, a template
    in x1..x9 kept per level, loops, mask and kept keys: an edge inside a
    first-letter block weighs x1..x3 by its label, one between blocks
    x4..x6, and the diagonal x7..x9 by block, less any loop.  Masked, the
    first row and column are cleared down to one x1 + x2 entry
    (``lambda_matrix``).  Rows, and columns in each, are in index order."""
    g = build_hanoi(k, include_loops=loops)
    block = [int(word[0]) for word in g.vertices]
    rows = [{i: [int(n == 6 + b) for n in range(9)]} for i, b in enumerate(block)]
    for e in g.edges:
        label = LABELS.index(e.label)
        if e.is_loop:
            rows[e.u][e.u][label] -= 1
        else:
            form = [0] * 9
            form[label if block[e.u] == block[e.v] else 3 + label] = -1
            rows[e.u][e.v] = rows[e.v][e.u] = form
    if masked:
        for row in rows:
            row.pop(0, None)
        rows[0] = {0: [1, 1, 0, 0, 0, 0, 0, 0, 0]}
    return Template({i: {j: tuple(row[j]) for j in sorted(row)} for i, row in enumerate(rows)},
                    keep)


# a decimation step keeps the level-2 corners 00, 11, 22 and eliminates
# the six other words
_CORNERS = (0, 4, 8)


def _rederive(t):
    """The inner determinant of the level-2 network at the integer state
    t, and the new x4..x9 at t as (numerator, denominator) pairs, which
    are meaningful only where it is nonzero: the Schur complement on the
    corners, read off one elimination."""
    inner, kept = _network(2, False, False, _CORNERS).det(t)
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


def lambda_matrix(k: int, s: SchurState) -> dict:
    """Masked 3^k x 3^k matrix whose determinant drives the decimation,
    as ``{row: {column: entry}}`` with only the nonzero entries, read off
    its template (``_network``).

    At the initial state this is the Laplacian of the level-k hanoi graph
    with the first row and column cleared down to the single (a+b) entry.
    """
    if k < 2:
        raise ValueError("the masked matrix is defined for level >= 2")
    return _network(k, True, True).rows(s)


def decimation_identity(s: SchurState) -> bool:
    """Whether ``det lambda_3(s) = D(s)^3 det lambda_2(P(s))`` holds at s,
    checked in integers on t = delta s: lambda_k is linear in the state,
    so with u = delta D(t) P(s) it reads
    ``det lambda_3(t) D(t)^6 = det lambda_2(u)``, a polynomial identity in
    t that holds where D(t) = 0 too."""
    t, _, d = _cleared_denominator(s)
    u = (*(x * d for x in t[:3]), *_map_numerators(t, d))
    return _network(3, True, True).det(t) * d**6 == _network(2, True, True).det(u)


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
                      _network(2, True, True).det(state))


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
