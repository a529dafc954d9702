"""The four labelled graph families as data.

One ``Family`` record per family holds what the CLI, the verify matrix
and the label statistics need to know about it: its names, its graph
builder and vertex/edge counts (so that a route's size cap is checked
before a graph is built), its bundle recursion and closed forms, the gf
routes that apply, and the pairs of routes that ``verify`` checks.

A family's recursion runs in one place, ``Level``, in the ring of the
weights: the gf recursion route and the components gf prints, symbolic
gf at ``SYMBOLS`` and hanoi's label statistics at jet weights all read
``Level.values``, the run multiplied out as ``sierpinski.iterate`` does
it.  At integer weights a product of powers is one value, a
FactoredPoly of int bases.  A gasket's closed form is one set of
FactoredPolys over the ring of the weights, read four ways: as values
by the ``closed`` route (``FactoredPoly.values``), as products of powers
by ``verify``, as text and expanded at ``SYMBOLS`` by symbolic gf, and
as the factors of T at jet weights by the label statistics
(``Family.stat_powers``).  For ``verify`` the recursion's run is one
FactoredPoly per component (``Level.products``), and hanoi's decimation
run one for T (``kirchhoff.Decimation.tree``).  ``verify`` compares the
recursion's with the closed form's or the decimation's, powers against
powers (``products_equal``), and multiplies both out only to report a
mismatch.
``ROUTES`` maps each gf method, in the order ``gf --method`` lists them,
to its one function (Level, integer weights) -> T; ``symbolic_routes``
names those with a symbolic form, and ``Family.skip_reason`` is the one
rule for where ``gf --method all`` leaves a route out and ``verify`` the
checks that run it.  The ``schur`` route folds the decimation run into a
value (``kirchhoff.schur_pipeline``); below level 3, where
``skip_reason`` leaves it out, there is no decimation step and it is the
``cofactor`` route on the level's graph.

Route functions are looked up through their modules when they are
called, not bound when this module is imported, so that a patched or
traced module function takes effect here too.  A ``Level`` keeps its
graph, the oracle's tree polynomial and the cofactor's template on it, each
built once per family and level in a process; only the capped cofactor
and oracle routes ask for them, so those caps bound what is kept.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import groupby

from . import graphs, kirchhoff, oracle
from . import hanoi as hgf
from . import sierpinski as sgf
from .algebra import FactoredPoly, Products, Weights, positive_weights
from .errors import CapabilityError

ONES = Weights.ones()

COFACTOR_VERTEX_CAP = 130
ORACLE_AUTO_EDGE_CAP = 12  # an explicitly requested oracle runs to oracle.EDGE_CAP

# trees in the spanning forests a bundle component counts: T trees, the
# corner 2-forests S, U, R and L, the corner 3-forests Q
TREES = {"T": 1, "S": 2, "U": 2, "R": 2, "L": 2, "Q": 3}

# how a check picks its weights: all ones, one draw per trial (consecutive
# TRIAL checks share each draw), or one draw
ONES_ONLY, TRIAL, DRAW = "ones", "trial", "draw"


class Check(namedtuple("Check", (
    "name",
    "left",
    "right",
    "weights",  # ONES_ONLY, TRIAL or DRAW
    "route",  # the gf route whose skip rule it follows, if any
    "first_level",
    "detail",
), defaults=(ONES_ONLY, None, 1, ()))):
    """Two routes, each (Level, weights) -> value, that must agree exactly.

    ``detail`` lists what a mismatch reports: "weights", then labels for
    the left and right values.
    """

    __slots__ = ()

    def mismatch_detail(self, w, left, right, unscale):
        """What a mismatch at the drawn weights w reports; ``unscale``
        takes a tree value from the integer weights back to w.  A side
        that is one product of powers is multiplied out here, and only
        where its value is reported."""
        def reported(v):
            if isinstance(v, Products):
                [v] = FactoredPoly.values(v)
            return str(unscale(v))

        values = map(reported, (left, right))
        return {k: str(w) if k == "weights" else next(values) for k in self.detail} or None


class Family(namedtuple("Family", (
    "name",  # as reported
    "aliases",  # accepted by the CLI
    "graph",  # (n, loops) -> LabelledGraph
    "vertices",  # n -> vertex count
    "edges",  # n -> non-loop edge count
    "components",  # of a bundle: trees, corner forests, 3-forests
    # the recursion: its step, bundle -> bundle, and its level-1 bundle,
    # w -> bundle in the ring of w (SYMBOLS gives symbolic components)
    "step",
    "initial",
    # (n, w=SYMBOLS, names) -> the closed-form bundle, FactoredPolys over
    # the ring of w; None: unweighted only
    "closed",
    # (n, w, names) -> the named components by the closed form; only these
    # are evaluated, because evaluating a factored component is costly
    "closed_value",
    "checks",  # Check records
    "counts",  # n -> CountsTriple at weights 1 1 1, or None
    "routes",
    "stat_cap",  # by default the evaluated bundles' cap
    "extra_checks",  # (levels, trials, rng) -> results, or None
), defaults=(None, ("recursion", "closed", "cofactor", "oracle"), sgf.EVALUATED_LEVEL_CAP, None))):
    """One labelled graph family; its callables take the level first."""

    __slots__ = ()

    def degree(self, n: int, component: str) -> int:
        """Total degree of a component at level n: a spanning forest with
        k trees on |V| vertices has |V| - k edges."""
        return self.vertices(n) - TREES[component]

    def unscaled(self, n: int, value, scale: int, component: str = "T"):
        """A component's value at weights w, reduced, from its value at the
        integer weights ``scale * w`` (see ``Weights.clear_denominators``);
        at scale 1 the value itself."""
        if scale == 1:
            return value
        return Fraction(value, scale ** self.degree(n, component))

    def skip_reason(self, route: str | None, n: int, w: Weights) -> str | None:
        """Why gf --method all and verify leave a route out at level n and
        weights w (SYMBOLS: weights still to be drawn), or None where it runs."""
        if route == "closed" and self.closed is None and w != ONES:
            return f"{self.name} closed form is unweighted"
        if route == "cofactor" and self.vertices(n) > COFACTOR_VERTEX_CAP:
            return f"cofactor capped at {COFACTOR_VERTEX_CAP} vertices"
        if route == "oracle" and self.edges(n) > ORACLE_AUTO_EDGE_CAP:
            return f"oracle skipped at {self.edges(n)} edges"
        if route == "schur" and n < 3:
            # below level 3 the decimation is the cofactor route again
            return "no decimation step below level 3"
        return None

    def stat_powers(self, n: int, w: Weights) -> list:
        """(value, exponent) pairs at w whose product is T up to a constant
        factor, for the label statistics: the factors of the closed form's T
        over the ring of w where the family has a weighted closed form, else
        T of the bundle."""
        if n > self.stat_cap:
            raise CapabilityError(f"{self.name} statistics are capped at level {self.stat_cap}")
        if self.closed is not None:
            return self.closed(n, w, ("T",)).T.factors
        return [(Level(self, n).values(w)[0], 1)]


_GRAPHS = {}  # (family name, level) -> its graph without loops; see Level
_TREE_POLYNOMIALS = {}  # (family name, level) -> the oracle's tree polynomial
_COFACTOR_TEMPLATES = {}  # (family name, level) -> the cofactor's planned template


class Level:
    """One family at one level; keeps what several routes share.  Its graph
    is built once per family and level in a process and kept in
    ``_GRAPHS``: only the cofactor and oracle routes read it, so their size
    caps bound that to 18 graphs of at most 123 vertices.  Its tree
    polynomial, the oracle's enumeration on that graph, is kept the same
    way in ``_TREE_POLYNOMIALS``; the oracle's 30-edge cap bounds that to
    10 polynomials.  Its cofactor's template (``kirchhoff.cofactor_template``:
    the reduced Laplacian in a, b and c, planned once on its pattern) is
    kept in ``_COFACTOR_TEMPLATES``, which the cofactor cap bounds to the
    18 templates of those graphs; a graph built outside a Level is planned
    for one call.

    It is the one place where the family's recursion runs, in the ring of
    the weights asked for.  The run is kept for the last weights asked
    for: its contents and its primitive bundle
    (``sierpinski.primitive_run``), and, once asked for, the components
    multiplied out (``values``)."""

    def __init__(self, family: Family, n: int):
        self.family = family
        self.n = n
        self._run = None  # (weights, contents, primitive bundle) of the last weights
        self._values = None  # the components at those weights, once formed
        self.orbit = []  # the decimation's denominators, once the schur route ran

    @property
    def graph(self):
        key = (self.family.name, self.n)
        if key not in _GRAPHS:
            _GRAPHS[key] = self.family.graph(self.n, False)
        return _GRAPHS[key]

    @property
    def tree_polynomial(self):
        """The weight-free spanning-tree polynomial, enumerated by the
        oracle on the first request and kept in ``_TREE_POLYNOMIALS``."""
        key = (self.family.name, self.n)
        if key not in _TREE_POLYNOMIALS:
            _TREE_POLYNOMIALS[key] = oracle.enumerate_gf(self.graph, oracle.ForestSpec("tree"))
        return _TREE_POLYNOMIALS[key]

    @property
    def cofactor_template(self):
        """The planned template of the cofactor that deletes vertex 0 of
        the graph, built on the first request and kept in
        ``_COFACTOR_TEMPLATES``."""
        key = (self.family.name, self.n)
        if key not in _COFACTOR_TEMPLATES:
            _COFACTOR_TEMPLATES[key] = kirchhoff.cofactor_template(self.graph)
        return _COFACTOR_TEMPLATES[key]

    @cached_property
    def counts(self):
        return self.family.counts(self.n)

    def _primitive_run(self, w) -> tuple:
        if self._run is None or self._run[0] != w:
            family = self.family
            self._run = (w, *sgf.primitive_run(family.step, family.initial(w), self.n))
            self._values = None
        return self._run[1:]

    def products(self, w) -> Products:
        """Each component at integer weights w as a product of powers, not
        formed, for ``products_equal``: the contents to their powers times
        the component's primitive part."""
        contents, primitive = self._primitive_run(w)
        powers = [*zip(contents, sgf.content_exponents(self.n))]
        return Products(FactoredPoly(None, [*powers, (getattr(primitive, c), 1)])
                        for c in self.family.components)

    def values(self, w) -> tuple:
        """The components at w, in the family's order, as ``iterate`` forms
        them: the primitive bundle scaled by the content, which is formed
        once."""
        contents, primitive = self._primitive_run(w)
        if self._values is None:
            bundle = sgf.scaled(primitive, sgf.content(contents))
            self._values = _pick(bundle, self.family.components)
        return self._values


def run_checks(family: Family, levels, trials: int, rng):
    """Run the family's checks at each level, drawing weights from rng;
    yields (name, level, ok, detail) for each.

    The routes run at the drawn weights with their denominators cleared
    and are compared exactly, as integers or, where a gasket's closed form
    or hanoi's decimation meets the recursion, as products of powers
    (``products_equal``); a mismatch reports the drawn weights and the
    values at them (``Check.mismatch_detail``).
    """
    for n in levels:
        lv = Level(family, n)
        for mode, group in groupby(family.checks, key=lambda c: c.weights):
            w = ONES if mode == ONES_ONLY else sgf.SYMBOLS  # drawn below
            group = [c for c in group
                     if n >= c.first_level and not family.skip_reason(c.route, n, w)]
            if not group:
                continue
            if mode == ONES_ONLY:
                draws = [ONES]
            else:
                draws = [positive_weights(rng) for _ in range(trials if mode == TRIAL else 1)]
            for w in draws:
                iw, scale = w.clear_denominators()
                for check in group:
                    left, right = check.left(lv, iw), check.right(lv, iw)
                    ok = left == right
                    detail = None if ok else check.mismatch_detail(
                        w, left, right, lambda v: family.unscaled(n, v, scale))
                    yield f"{family.name.removeprefix('sierpinski-')} {check.name}", n, ok, detail
    if family.extra_checks is not None:
        yield from family.extra_checks(levels, trials, rng)


def _pick(bundle, names) -> tuple:
    return tuple(getattr(bundle, c) for c in names)


def _count_parts(counts, names) -> tuple:
    # at weights 1 1 1 every corner forest has the same count s
    return tuple({"T": counts.tau, "Q": counts.q}.get(c, counts.s) for c in names)


# -- routes of gf and the check tables: (Level, weights) -> value --------------


def _tree(lv, w):
    return lv.values(w)[0]


def _tree_products(lv, w):
    return Products(lv.products(w)[:1])


def _closed(lv, w):
    return lv.family.closed_value(lv.n, w, lv.family.components)


def _closed_products(lv, w):
    names = lv.family.components
    return Products(_pick(lv.family.closed(lv.n, w, names), names))


def _counts(lv, w):
    return _count_parts(lv.counts, lv.family.components)


def _counts_tree(lv, w):
    return lv.counts.tau


def _cofactor(lv, w):
    return kirchhoff.tree_gf_cofactor(lv.graph, w, template=lv.cofactor_template)


def _oracle(lv, w):
    return lv.tree_polynomial.evaluate(w)


def _schur(lv, w):
    if lv.family.skip_reason("schur", lv.n, w):
        return _cofactor(lv, w)
    value, lv.orbit = kirchhoff.schur_pipeline(lv.n, w)
    return value


def _decimation_tree(lv, w):
    return Products([kirchhoff.decimation_run(lv.n, w).tree(w)])


ROUTES = {"recursion": _tree, "closed": lambda lv, w: lv.family.closed_value(lv.n, w, ("T",))[0],
          "cofactor": _cofactor, "schur": _schur, "oracle": _oracle}


def symbolic_routes(family: Family) -> tuple[str, ...]:
    """The gf routes with a symbolic form; gf --mode symbolic runs them all."""
    return ("recursion", "closed") if family.closed is not None else ("recursion",)


def _schur_map_guards(levels, trials, rng):
    """Map-level guards of the decimation, independent of the level range."""
    for _ in range(trials):
        div = kirchhoff.schur_map_divergence(kirchhoff.SchurState.random(rng))
        yield "schur map = rederived", None, not div, div or None
    if max(levels) >= 3:
        for _ in range(2):
            state = kirchhoff.SchurState.random(rng)
            yield "decimation identity k=3", None, kirchhoff.decimation_identity(state), None


_COFACTOR_CHECK = Check("cofactor = recursion", _cofactor, _tree, DRAW, route="cofactor")
_ORACLE_CHECK = Check("oracle tree count", _oracle, _counts_tree, route="oracle")
# a mismatch reports the weights alone: neither side is multiplied out
_CLOSED_CHECK = Check("closed = recursion", _closed_products, Level.products, TRIAL,
                      detail=("weights",))

HANOI = Family(
    name="hanoi",
    aliases=("hanoi",),
    graph=lambda n, loops: graphs.build_hanoi(n, include_loops=loops),
    vertices=lambda n: 3**n,
    edges=lambda n: (3 ** (n + 1) - 3) // 2,
    components=sgf.FIVE,
    step=lambda bundle: hgf.hanoi_step(bundle),
    initial=lambda w: sgf.five_initial(w),
    closed=None,
    closed_value=lambda n, w, names: _count_parts(hgf.hanoi_counts_closed(n), names),
    counts=lambda n: hgf.hanoi_counts_recursive(n),
    routes=("recursion", "closed", "cofactor", "schur", "oracle"),
    checks=(
        Check("counts recursive=closed", lambda lv, w: lv.counts,
              lambda lv, w: hgf.hanoi_counts_closed(lv.n), detail=("recursive", "closed")),
        Check("bundle at ones = counts", Level.values, _counts),
        _ORACLE_CHECK,
        Check("recursion=schur", _tree_products, _decimation_tree, TRIAL, route="schur",
              detail=("weights", "recursion", "schur")),
        Check("recursion=cofactor", _tree, _cofactor, TRIAL, route="cofactor",
              detail=("weights", "recursion", "cofactor")),
    ),
    extra_checks=_schur_map_guards,
)

ROTATIONAL = Family(
    name="sierpinski-rotational",
    aliases=("sierpinski-rot", "sierpinski-rotational"),
    graph=lambda n, loops: graphs.build_sierpinski(n, "rotational"),
    vertices=lambda n: sgf.rot_vertex_count(n),
    edges=lambda n: 3 ** (n + 1),
    components=("T", "S", "Q"),
    step=lambda bundle: sgf.rot_step(bundle),
    initial=lambda w: sgf.rot_initial(w),
    closed=lambda n, w=sgf.SYMBOLS, names=None: sgf.rot_closed(n, w),
    closed_value=lambda n, w, names: tuple(FactoredPoly.values(_pick(sgf.rot_closed(n, w), names))),
    counts=lambda n: sgf.rot_counts(n),
    stat_cap=20,  # the closed form has no level cap and keeps the statistics cheap
    checks=(
        Check("closed at ones = counts", _closed, _counts),
        _CLOSED_CHECK,
        _COFACTOR_CHECK,
        _ORACLE_CHECK,
    ),
)

_DIRECTIONAL_CHECKS = (
    _CLOSED_CHECK,
    Check("T at ones = rotational shift", _tree, lambda lv, w: sgf.rot_bundle(lv.n - 1, w).T,
          first_level=2),
    _COFACTOR_CHECK,
)


def _directional_like(label: str, aliases, step, closed, closed_value) -> Family:
    """The directional and schreier gaskets differ only in their recursion
    and closed forms."""
    return Family(
        name=f"sierpinski-{label}",
        aliases=aliases,
        graph=lambda n, loops: graphs.build_sierpinski(n, label),
        vertices=lambda n: (3**n + 3) // 2,
        edges=lambda n: 3**n,
        components=sgf.FIVE,
        step=step,
        initial=lambda w: sgf.five_initial(w),
        closed=closed,
        closed_value=lambda n, w, names: _pick(closed_value(n, w, names), names),
        checks=_DIRECTIONAL_CHECKS,
    )


DIRECTIONAL = _directional_like(
    "directional", ("sierpinski-dir", "sierpinski-directional"),
    lambda bundle: sgf.dir_step(bundle),
    lambda n, w=sgf.SYMBOLS, names=sgf.FIVE: sgf.dir_closed(n, w, names),
    lambda n, w, names: sgf.dir_closed_value(n, w, names),
)
SCHREIER = _directional_like(
    "schreier", ("sierpinski-schreier",),
    lambda bundle: sgf.schreier_step(bundle),
    lambda n, w=sgf.SYMBOLS, names=sgf.FIVE: sgf.schreier_closed(n, w, names),
    lambda n, w, names: sgf.schreier_closed_value(n, w, names),
)

FAMILIES = {f.name: f for f in (HANOI, ROTATIONAL, DIRECTIONAL, SCHREIER)}
_BY_ALIAS = {alias: f for f in FAMILIES.values() for alias in f.aliases}


def lookup(name: str) -> Family:
    """The family a CLI or library name stands for."""
    try:
        return _BY_ALIAS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
