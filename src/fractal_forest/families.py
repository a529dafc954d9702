"""The four labelled graph families as data.

One ``Family`` record per family holds what the CLI, the verify matrix
and the label statistics need to know about it: its names, its graph
builder and vertex/edge counts (so that a route's size cap is checked
before a graph is built), its bundle recursion and closed forms, the gf
routes that apply, and the pairs of routes that ``verify`` checks.
``ROUTES`` maps each gf method to its one function (Level, integer
weights) -> T, and ``Family.skip_reason`` is the one rule for where
``gf --method all`` leaves a route out and ``verify`` the checks that run it.

Route functions are looked up through their modules when they are
called, not bound when this module is imported, so that a patched or
traced module function takes effect here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Callable

from . import graphs, kirchhoff, oracle
from . import hanoi as hgf
from . import sierpinski as sgf
from .algebra import FactoredPoly, Weights, positive_weights
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


@dataclass(frozen=True)
class Check:
    """Two routes, each (Level, weights) -> value, that must agree exactly.

    ``detail`` lists what a mismatch reports: "weights", then labels for
    the left and right values.
    """

    name: str
    left: Callable
    right: Callable
    weights: str = ONES_ONLY
    route: str | None = None  # the gf route whose skip rule it follows, if any
    first_level: int = 1
    detail: tuple[str, ...] = ()

    def mismatch_detail(self, w, left, right, unscale):
        """What a mismatch at the drawn weights w reports; ``unscale``
        takes a tree value from the integer weights back to w."""
        values = (str(unscale(v)) for v in (left, right))
        return {k: str(w) if k == "weights" else next(values) for k in self.detail} or None


@dataclass(frozen=True)
class Family:
    """One labelled graph family; its callables take the level first."""

    name: str  # as reported
    aliases: tuple[str, ...]  # accepted by the CLI
    graph: Callable  # (n, loops) -> LabelledGraph
    vertices: Callable[[int], int]
    edges: Callable[[int], int]  # non-loop edges
    components: tuple[str, ...]  # of a bundle: trees, corner forests, 3-forests
    bundle: Callable  # (n, w) -> bundle; w None gives symbolic components
    closed: Callable | None  # n -> symbolic closed-form bundle; None: unweighted only
    # (n, w, names) -> the named components by the closed form; only these
    # are evaluated, because evaluating a factored component is costly
    closed_value: Callable
    checks: tuple[Check, ...]
    counts: Callable | None = None  # n -> CountsTriple at weights 1 1 1
    routes: tuple[str, ...] = ("recursion", "closed", "cofactor", "oracle")
    stat_cap: int = sgf.SYMBOLIC_LEVEL_CAP
    extra_checks: Callable | None = None  # (levels, trials, rng) -> results

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

    def skip_reason(self, route: str | None, n: int, w: Weights | None) -> str | None:
        """Why gf --method all and verify leave a route out at level n and
        weights w (None: weights still to be drawn), or None where it runs."""
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

    def parts(self, bundle) -> dict:
        return {c: getattr(bundle, c) for c in self.components}

    def stat_tree(self, n: int) -> FactoredPoly:
        """T as a product, whose log-derivatives give the label statistics."""
        if n > self.stat_cap:
            raise CapabilityError(f"{self.name} statistics are capped at level {self.stat_cap}")
        if self.closed is not None:
            return self.closed(n).T
        return FactoredPoly.of(self.bundle(n, None).T)


class Level:
    """One family at one level; keeps what several routes share."""

    def __init__(self, family: Family, n: int):
        self.family = family
        self.n = n
        self._bundle = None  # (weights, bundle) of the last bundle asked for
        self.orbit = []  # the decimation's denominators, once the schur route ran

    @cached_property
    def graph(self):
        return self.family.graph(self.n, False)

    @cached_property
    def counts(self):
        return self.family.counts(self.n)

    def bundle(self, w):
        if self._bundle is None or self._bundle[0] != w:
            self._bundle = (w, self.family.bundle(self.n, w))
        return self._bundle[1]


def run_checks(family: Family, levels, trials: int, rng):
    """Run the family's checks at each level, drawing weights from rng;
    yields (name, level, ok, detail) for each.

    The routes run at the drawn weights with their denominators cleared
    and are compared as integers; a mismatch reports the drawn weights and
    the values at them.
    """
    for n in levels:
        lv = Level(family, n)
        for mode, group in groupby(family.checks, key=lambda c: c.weights):
            w = ONES if mode == ONES_ONLY else None  # drawn below
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
    return lv.bundle(w).T


def _bundle(lv, w):
    return _pick(lv.bundle(w), lv.family.components)


def _closed(lv, w):
    return lv.family.closed_value(lv.n, w, lv.family.components)


def _counts(lv, w):
    return _count_parts(lv.counts, lv.family.components)


def _counts_tree(lv, w):
    return lv.counts.tau


def _cofactor(lv, w):
    return kirchhoff.tree_gf_cofactor(lv.graph, w)


def _oracle(lv, w):
    return oracle.enumerate_gf(lv.graph, oracle.ForestSpec("tree")).evaluate(w)


def _schur(lv, w):
    value, lv.orbit = kirchhoff.schur_pipeline(lv.n, w)
    return value


ROUTES = {"recursion": _tree, "cofactor": _cofactor, "schur": _schur, "oracle": _oracle,
          "closed": lambda lv, w: lv.family.closed_value(lv.n, w, ("T",))[0]}


def _schur_map_guards(levels, trials, rng):
    """Map-level guards of the decimation, independent of the level range."""
    done = 0
    while done < trials:
        state = kirchhoff.SchurState.random(rng)
        if kirchhoff.schur_denominator(state) == 0:
            continue
        div = kirchhoff.schur_map_divergence(state)
        yield "schur map = rederived", None, not div, div or None
        done += 1
    if max(levels) >= 3:
        for _ in range(2):
            state = kirchhoff.SchurState.random(rng)
            d = kirchhoff.schur_denominator(state)
            if d == 0:
                continue
            lhs = kirchhoff.lambda_matrix(3, state).det()
            rhs = d**3 * kirchhoff.lambda_matrix(2, kirchhoff.schur_map(state)).det()
            yield "decimation identity k=3", None, lhs == rhs, None


_COFACTOR_CHECK = Check("cofactor = recursion", _cofactor, _tree, DRAW, route="cofactor")

HANOI = Family(
    name="hanoi",
    aliases=("hanoi",),
    graph=lambda n, loops: graphs.build_hanoi(n, include_loops=loops),
    vertices=lambda n: 3**n,
    edges=lambda n: (3 ** (n + 1) - 3) // 2,
    components=sgf.FIVE,
    bundle=lambda n, w: hgf.hanoi_bundle(n, w),
    closed=None,
    closed_value=lambda n, w, names: _count_parts(hgf.hanoi_counts_closed(n), names),
    counts=lambda n: hgf.hanoi_counts_recursive(n),
    routes=("recursion", "closed", "cofactor", "schur", "oracle"),
    checks=(
        Check("counts recursive=closed", lambda lv, w: lv.counts,
              lambda lv, w: hgf.hanoi_counts_closed(lv.n), detail=("recursive", "closed")),
        Check("bundle at ones = counts", _bundle, _counts),
        Check("oracle tree count", _oracle, _counts_tree, route="oracle"),
        Check("recursion=schur", _tree, _schur, TRIAL, route="schur",
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
    bundle=lambda n, w: sgf.rot_bundle(n, w),
    closed=lambda n: sgf.rot_closed(n),
    closed_value=lambda n, w, names: tuple(c.evaluate(w) for c in _pick(sgf.rot_closed(n), names)),
    counts=lambda n: sgf.rot_counts(n),
    stat_cap=20,  # the factored closed form keeps label statistics cheap
    checks=(
        Check("closed at ones = counts", _closed, _counts),
        Check("closed = recursion", _closed, _bundle, TRIAL, detail=("weights",)),
        _COFACTOR_CHECK,
        Check("oracle tree count", _oracle, _counts_tree, route="oracle"),
    ),
)

_DIRECTIONAL_CHECKS = (
    Check("closed = recursion", _bundle, _closed, TRIAL, detail=("weights",)),
    Check("T at ones = rotational shift", _tree, lambda lv, w: sgf.rot_bundle(lv.n - 1, w).T,
          first_level=2),
    _COFACTOR_CHECK,
)


def _directional_like(label: str, aliases, bundle, closed, closed_value) -> Family:
    """The directional and schreier gaskets differ only in their recursion
    and closed forms."""
    return Family(
        name=f"sierpinski-{label}",
        aliases=aliases,
        graph=lambda n, loops: graphs.build_sierpinski(n, label),
        vertices=lambda n: (3**n + 3) // 2,
        edges=lambda n: 3**n,
        components=sgf.FIVE,
        bundle=bundle,
        closed=closed,
        closed_value=lambda n, w, names: _pick(closed_value(n, w, names), names),
        checks=_DIRECTIONAL_CHECKS,
    )


DIRECTIONAL = _directional_like(
    "directional", ("sierpinski-dir", "sierpinski-directional"),
    lambda n, w: sgf.dir_bundle(n, w), lambda n: sgf.dir_closed(n),
    lambda n, w, names: sgf.dir_closed_value(n, w, names),
)
SCHREIER = _directional_like(
    "schreier", ("sierpinski-schreier",),
    lambda n, w: sgf.schreier_bundle(n, w), lambda n: sgf.schreier_closed(n),
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
