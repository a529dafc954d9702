"""Labelled self-similar triangle graphs.

Four families are built here, all exact and with a fixed canonical vertex
order so that matrices and golden files are reproducible byte for byte:

* ``hanoi`` -- level-n Schreier graphs of the Hanoi Towers group acting on
  the ternary rooted tree.  Vertices are words of length n over {0,1,2} in
  lexicographic order; each generator a, b, c contributes the edge
  {w, g(w)} labelled by g.  The three loops sit at 0^n (label c), 1^n
  (label b) and 2^n (label a).
* ``sierpinski-rotational`` -- gasket approximations whose level-1 cell is
  a 6-vertex hexagon-plus-inner-triangle with labels a, b alternating on
  the boundary and c on the inner triangle; level n+1 glues three
  identically labelled copies of level n at shared corner vertices.
* ``sierpinski-directional`` -- the plain gasket of side 2^(n-1) where a
  label only depends on the direction of the edge: a points up, b is
  horizontal, c points down.
* ``sierpinski-schreier`` -- obtained from the hanoi graph by deleting the
  three loops and contracting every edge that joins two different
  elementary triangles, keeping the labels of the surviving edges.  It is
  built as three copies of the level below, each reflected in the
  bisectrix of its corner; the tests keep the contraction as the
  reference.

Gasket vertices are triangular-lattice coordinates ``(row, col)`` with the
apex at (0, 0), row increasing downward and ``0 <= col <= row``; the total
order is lexicographic on (row, col).  Corner conventions everywhere:
``top`` is the apex, ``left`` the bottom-left corner, ``right`` the
bottom-right corner.  For hanoi graphs top = 1^n, left = 0^n, right = 2^n.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from types import MappingProxyType

LABELS = ("a", "b", "c")

# wreath recursion of the three generators: each swaps two first letters
# and recurses past its fixed letter
_SWAP = {
    "a": {"0": "1", "1": "0"},
    "b": {"0": "2", "2": "0"},
    "c": {"1": "2", "2": "1"},
}
_FIXED = {"a": "2", "b": "1", "c": "0"}


def apply_generator(label: str, word: str) -> str:
    """Act with generator ``label`` on a ternary word (an involution)."""
    if label not in LABELS:
        raise ValueError(f"unknown generator {label!r}")
    if not word:
        raise ValueError("word must be nonempty")
    fixed = _FIXED[label]
    for i, ch in enumerate(word):
        if ch != fixed:
            return word[:i] + _SWAP[label][ch] + word[i + 1 :]
    return word


class LabelledEdge(namedtuple("LabelledEdge", "u v label is_loop")):
    __slots__ = ()

    def __new__(cls, u: int, v: int, label: str, is_loop: bool = False):
        if (u == v) != is_loop:
            raise ValueError("loop flag inconsistent with endpoints")
        if u > v:
            raise ValueError("edges are stored with u <= v")
        return tuple.__new__(cls, (u, v, label, is_loop))


class LabelledGraph(namedtuple("LabelledGraph", "family level vertices edges corners")):
    """A read-only graph, so that one built graph can be shared by every
    request in a process: its fields cannot be assigned, and its
    ``corners``, ``{"top": idx, "left": idx, "right": idx}``, are a
    read-only copy of the mapping given."""

    __slots__ = ()

    def __new__(cls, family: str, level: int, vertices: tuple, edges: tuple, corners):
        return tuple.__new__(cls, (family, level, vertices, edges, MappingProxyType(dict(corners))))

    def vertex_name(self, i: int) -> str:
        v = self.vertices[i]
        if isinstance(v, tuple):
            return f"{v[0]},{v[1]}"
        return str(v)

    def nonloop_edges(self):
        return [e for e in self.edges if not e.is_loop]

    def loops(self):
        return [e for e in self.edges if e.is_loop]

    def degrees(self):
        """Incidence counts; a loop adds one (its single generator slot)."""
        deg = [0] * len(self.vertices)
        for e in self.edges:
            if e.is_loop:
                deg[e.u] += 1
            else:
                deg[e.u] += 1
                deg[e.v] += 1
        return deg

    def breadth_first(self, root: int = 0) -> list:
        """The vertices reachable from ``root`` over non-loop edges in
        breadth-first order: nearest first, each vertex's neighbours in
        edge order."""
        adj = [[] for _ in self.vertices]
        for e in self.nonloop_edges():
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        order = [root]
        seen = {root}
        for u in order:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        return order

    def is_connected_ignoring_loops(self) -> bool:
        return not self.vertices or len(self.breadth_first()) == len(self.vertices)


def _make_graph(family, level, named_edges, corner_names):
    """Assemble a graph from edges on raw vertex names, canonically sorted."""
    verts = sorted({u for u, _, _ in named_edges} | {v for _, v, _ in named_edges})
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    seen = set()
    for u, v, lab in named_edges:
        iu, iv = index[u], index[v]
        if iu > iv:
            iu, iv = iv, iu
        key = (iu, iv, lab)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        edges.append(LabelledEdge(iu, iv, lab, is_loop=(iu == iv)))
    edges.sort(key=lambda e: (e.u, e.v, e.label))
    corners = {name: index[v] for name, v in corner_names.items()}
    return LabelledGraph(family, level, tuple(verts), tuple(edges), corners)


# -- Hanoi Schreier graphs ---------------------------------------------------


def build_hanoi(n: int, include_loops: bool = False) -> LabelledGraph:
    """Schreier graph on the 3^n words of length n, optionally with loops."""
    if n < 1:
        raise ValueError("level must be >= 1")
    words = ["".join(p) for p in product("012", repeat=n)]
    named = []
    for w in words:
        for g in LABELS:
            v = apply_generator(g, w)
            if v == w:
                if include_loops:
                    named.append((w, w, g))
            elif w < v:
                named.append((w, v, g))
    corners = {"top": "1" * n, "left": "0" * n, "right": "2" * n}
    return _make_graph("hanoi", n, named, corners)


# -- triangular-lattice gaskets ----------------------------------------------


def build_sierpinski(n: int, labelling: str) -> LabelledGraph:
    """Gasket graph at level n under one of the three labellings."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if labelling == "rotational":
        return _glue("sierpinski-rotational", n, _ROT_LEVEL1, 2, _TRANSLATE)
    if labelling == "directional":
        # a translation keeps the direction of an edge, hence its label
        return _glue("sierpinski-directional", n, _UNIT_TRIANGLE, 1, _TRANSLATE)
    if labelling == "schreier":
        return _glue("sierpinski-schreier", n, _UNIT_TRIANGLE, 1, _REFLECT)
    raise ValueError(f"unknown labelling {labelling!r}")


def _corners(side: int) -> dict:
    return {"top": (0, 0), "left": (side, 0), "right": (side, side)}


# where the three copies of a gasket of side s go in the gasket of side 2s:
# the top, bottom-left and bottom-right copy, in that order
_TRANSLATE = (
    lambda r, c, s: (r, c),
    lambda r, c, s: (r + s, c),
    lambda r, c, s: (r + s, c + s),
)
# the same copies, each reflected in the bisectrix of its corner
_REFLECT = (
    lambda r, c, s: (r, r - c),
    lambda r, c, s: (2 * s - c, s - r),
    lambda r, c, s: (2 * s - r + c, s + c),
)


def _glue(family, n, level1, side, placements) -> LabelledGraph:
    """The level-n gasket from its level-1 edges on a triangle of the given
    side: each further level replaces every edge by its images in the
    three copies, keeping its label.  Copies share corners, not edges."""
    edges = level1
    for _ in range(n - 1):
        edges = [(f(*p, side), f(*q, side), lab) for f in placements for p, q, lab in edges]
        side *= 2
    return _make_graph(family, n, edges, _corners(side))


# level-1 rotational cell: hexagonal boundary alternating a, b from the
# apex going down-left, inner triangle all c
_ROT_LEVEL1 = (
    ((0, 0), (1, 0), "a"),
    ((1, 0), (2, 0), "b"),
    ((2, 0), (2, 1), "a"),
    ((2, 1), (2, 2), "b"),
    ((1, 1), (2, 2), "a"),
    ((0, 0), (1, 1), "b"),
    ((1, 0), (1, 1), "c"),
    ((1, 0), (2, 1), "c"),
    ((1, 1), (2, 1), "c"),
)


# the labelled unit triangle of the directional and schreier gaskets:
# a points up, b is horizontal, c points down
_UNIT_TRIANGLE = (((1, 0), (0, 0), "a"), ((1, 0), (1, 1), "b"), ((0, 0), (1, 1), "c"))


# -- census and export ---------------------------------------------------------


def graph_census(g: LabelledGraph) -> dict:
    label_counts = {lab: 0 for lab in LABELS}
    loop_labels = {}
    for e in g.edges:
        if e.is_loop:
            loop_labels[g.vertex_name(e.u)] = e.label
        else:
            label_counts[e.label] += 1
    histogram = {}
    for d in g.degrees():
        histogram[d] = histogram.get(d, 0) + 1
    return {
        "family": g.family,
        "level": g.level,
        "vertices": len(g.vertices),
        "edges": len(g.nonloop_edges()),
        "loops": len(g.loops()),
        "loop_labels": loop_labels,
        "label_counts": label_counts,
        "degree_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "connected": g.is_connected_ignoring_loops(),
        "corners": {k: g.vertex_name(i) for k, i in sorted(g.corners.items())},
    }


def export_dot(g: LabelledGraph) -> str:
    """Deterministic DOT text; labels and loop markers preserved."""
    lines = [f'graph "{g.family}-{g.level}" {{']
    for i in range(len(g.vertices)):
        lines.append(f'  "{g.vertex_name(i)}";')
    for e in g.edges:
        attrs = f'label="{e.label}"'
        if e.is_loop:
            attrs += ", style=dashed"
        lines.append(f'  "{g.vertex_name(e.u)}" -- "{g.vertex_name(e.v)}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
