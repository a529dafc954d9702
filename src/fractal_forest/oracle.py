"""Brute-force enumeration of weighted spanning trees and corner forests.

This is the ground truth the algebraic routes are checked against, so it
stays deliberately independent of them: a plain include/exclude backtrack
over the edge list with union-find pruning, each accepted subgraph
contributing its label monomial to an expanded polynomial.

Desk scale only; graphs beyond 30 edges are refused.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import TriPoly
from .errors import CapabilityError
from .graphs import LABELS, LabelledGraph

EDGE_CAP = 30

KINDS = ("tree", "two-forest", "three-forest")


class ForestSpec(namedtuple("ForestSpec", "kind isolated")):
    """Which spanning subgraphs to sum over.

    ``tree``: spanning trees.  ``two-forest``: spanning 2-forests where the
    ``isolated`` corner (its name) is cut off from the other two corners.
    ``three-forest``: spanning 3-forests separating all three corners.
    """

    __slots__ = ()

    def __new__(cls, kind: str, isolated: str | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "two-forest":
            if isolated not in ("top", "left", "right"):
                raise ValueError("two-forest needs an isolated corner")
        elif isolated is not None:
            raise ValueError("isolated corner only applies to two-forest")
        return tuple.__new__(cls, (kind, isolated))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def enumerate_gf(g: LabelledGraph, spec: ForestSpec) -> TriPoly:
    """Exact generating function of the requested spanning subgraphs."""
    edges = sorted(g.nonloop_edges(), key=lambda e: (e.u, e.v, e.label))
    if len(edges) > EDGE_CAP:
        raise CapabilityError(
            f"{len(edges)} edges exceeds the {EDGE_CAP}-edge oracle cap"
        )
    nv = len(g.vertices)
    target = {"tree": nv - 1, "two-forest": nv - 2, "three-forest": nv - 3}[spec.kind]
    top, left, right = (g.corners[k] for k in ("top", "left", "right"))
    if spec.kind == "tree":
        forbidden_pairs = ()
    elif spec.kind == "two-forest":
        iso = g.corners[spec.isolated]
        others = [v for v in (top, left, right) if v != iso]
        forbidden_pairs = ((iso, others[0]), (iso, others[1]))
    else:
        forbidden_pairs = ((top, left), (top, right), (left, right))

    counts = {lab: 0 for lab in LABELS}
    accum: dict = {}

    def admissible(parent):
        for x, y in forbidden_pairs:
            if _find(parent, x) == _find(parent, y):
                return False
        return True

    def recurse(idx, chosen, parent):
        if chosen == target:
            # acyclic with the right edge count forces the component count;
            # the forbidden pairs already pinned the corners apart
            e = (counts["a"], counts["b"], counts["c"])
            accum[e] = accum.get(e, 0) + 1
            return
        if idx == len(edges) or chosen + (len(edges) - idx) < target:
            return
        e = edges[idx]
        ru, rv = _find(parent, e.u), _find(parent, e.v)
        if ru != rv:
            child = list(parent)
            child[ru] = rv
            if admissible(child):
                counts[e.label] += 1
                recurse(idx + 1, chosen + 1, child)
                counts[e.label] -= 1
        recurse(idx + 1, chosen, parent)

    recurse(0, 0, list(range(nv)))
    return TriPoly(accum)
