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
  elementary triangles, keeping the labels of the surviving edges.

Gasket vertices are triangular-lattice coordinates ``(row, col)`` with the
apex at (0, 0), row increasing downward and ``0 <= col <= row``; the total
order is lexicographic on (row, col).  Corner conventions everywhere:
``top`` is the apex, ``left`` the bottom-left corner, ``right`` the
bottom-right corner.  For hanoi graphs top = 1^n, left = 0^n, right = 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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


@dataclass(frozen=True)
class LabelledEdge:
    u: int
    v: int
    label: str
    is_loop: bool = False

    def __post_init__(self):
        if (self.u == self.v) != self.is_loop:
            raise ValueError("loop flag inconsistent with endpoints")
        if self.u > self.v:
            raise ValueError("edges are stored with u <= v")


@dataclass(frozen=True)
class LabelledGraph:
    family: str
    level: int
    vertices: tuple
    edges: tuple
    corners: dict  # {"top": idx, "left": idx, "right": idx}

    def vertex_name(self, i: int) -> str:
        v = self.vertices[i]
        if isinstance(v, tuple):
            return f"{v[0]},{v[1]}"
        return str(v)

    def nonloop_edges(self):
        return [e for e in self.edges if not e.is_loop]

    def loops(self):
        return [e for e in self.edges if e.is_loop]

    def without_loops(self) -> "LabelledGraph":
        return LabelledGraph(
            family=self.family,
            level=self.level,
            vertices=self.vertices,
            edges=tuple(self.nonloop_edges()),
            corners=self.corners,
        )

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

    def is_connected_ignoring_loops(self) -> bool:
        n = len(self.vertices)
        if n == 0:
            return True
        adj = [[] for _ in range(n)]
        for e in self.nonloop_edges():
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n


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


def _gasket_cells(n: int):
    """Upward unit cells (r, c) of the gasket with side 2^(n-1).

    A cell (r, c) stands for the small triangle with corners (r, c),
    (r+1, c), (r+1, c+1).  Level 1 is the single cell; each further level
    glues three translated copies (top, bottom-left, bottom-right).
    """
    cells = [(0, 0)]
    side = 1
    for _ in range(n - 1):
        cells = (
            cells
            + [(r + side, c) for r, c in cells]
            + [(r + side, c + side) for r, c in cells]
        )
        side *= 2
    return cells, side


def build_sierpinski(n: int, labelling: str) -> LabelledGraph:
    """Gasket graph at level n under one of the three labellings."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if labelling == "rotational":
        return _build_rotational(n)
    if labelling == "directional":
        return _build_directional(n)
    if labelling == "schreier":
        return _build_schreier(n)
    raise ValueError(f"unknown labelling {labelling!r}")


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


def _build_rotational(n: int) -> LabelledGraph:
    edges = set(_ROT_LEVEL1)
    side = 2
    for _ in range(n - 1):
        out = set()
        for (r1, c1), (r2, c2), lab in edges:
            out.add(((r1, c1), (r2, c2), lab))
            out.add(((r1 + side, c1), (r2 + side, c2), lab))
            out.add(((r1 + side, c1 + side), (r2 + side, c2 + side), lab))
        edges = out
        side *= 2
    corners = {"top": (0, 0), "left": (side, 0), "right": (side, side)}
    return _make_graph("sierpinski-rotational", n, sorted(edges), corners)


def _direction_label(p, q) -> str:
    """a = pointing up, b = horizontal, c = pointing down (left to right)."""
    (r1, c1), (r2, c2) = sorted((p, q))
    if r1 == r2:
        return "b"
    return "a" if c2 == c1 else "c"


def _build_directional(n: int) -> LabelledGraph:
    cells, side = _gasket_cells(n)
    named = []
    for r, c in cells:
        lo, ll, lr = (r, c), (r + 1, c), (r + 1, c + 1)
        for p, q in ((ll, lo), (ll, lr), (lo, lr)):
            named.append((min(p, q), max(p, q), _direction_label(p, q)))
    corners = {"top": (0, 0), "left": (side, 0), "right": (side, side)}
    return _make_graph("sierpinski-directional", n, named, corners)


# -- gasket coordinates of hanoi words and the contraction ---------------------


def _reflect_top(r, c, s):
    return (r, r - c)


def _reflect_left(r, c, s):
    return (s - c, s - r)


def _reflect_right(r, c, s):
    return (s - r + c, c)


def hanoi_word_coordinates(n: int) -> dict:
    """Gasket coordinate of each length-n word (side 2^(n-1)).

    Each copy of the level-n graph inside level n+1 is reflected with
    respect to the bisectrix of its corner; the two endpoints of every
    contracted edge land on the same lattice point.
    """
    coords = {"0": (1, 0), "1": (0, 0), "2": (1, 1)}
    side = 1
    for _ in range(n - 1):
        nxt = {}
        for w, (r, c) in coords.items():
            rt, ct = _reflect_top(r, c, side)
            nxt[w + "1"] = (rt, ct)
            rl, cl = _reflect_left(r, c, side)
            nxt[w + "0"] = (rl + side, cl)
            rr, cr = _reflect_right(r, c, side)
            nxt[w + "2"] = (rr + side, cr + side)
        coords = nxt
        side *= 2
    return coords


def _build_schreier(n: int) -> LabelledGraph:
    sigma = build_hanoi(n, include_loops=False)
    coords = hanoi_word_coordinates(n)
    named = []
    for e in sigma.edges:
        cu = coords[sigma.vertices[e.u]]
        cv = coords[sigma.vertices[e.v]]
        if cu == cv:
            continue  # a contracted edge between two elementary triangles
        named.append((min(cu, cv), max(cu, cv), e.label))
    side = 2 ** (n - 1)
    corners = {"top": (0, 0), "left": (side, 0), "right": (side, side)}
    return _make_graph("sierpinski-schreier", n, named, corners)


def schreier_gasket_by_reflection(n: int) -> LabelledGraph:
    """Small-level oracle: build the schreier labelling by the reflected
    three-copy recursion instead of by contraction."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > 4:
        raise ValueError("reflection oracle is for small levels only")
    edges = {((1, 0), (0, 0), "a"), ((1, 0), (1, 1), "b"), ((0, 0), (1, 1), "c")}
    side = 1
    for _ in range(n - 1):
        out = set()
        for p, q, lab in edges:
            for reflect, dr, dc in (
                (_reflect_top, 0, 0),
                (_reflect_left, side, 0),
                (_reflect_right, side, side),
            ):
                rp = reflect(*p, side)
                rq = reflect(*q, side)
                np_ = (rp[0] + dr, rp[1] + dc)
                nq = (rq[0] + dr, rq[1] + dc)
                out.add((min(np_, nq), max(np_, nq), lab))
        edges = out
        side *= 2
    corners = {"top": (0, 0), "left": (side, 0), "right": (side, side)}
    return _make_graph("sierpinski-schreier", n, sorted(edges), corners)


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
