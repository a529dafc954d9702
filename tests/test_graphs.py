import hashlib
from fractions import Fraction
from itertools import product

import pytest

from fractal_forest.algebra import Weights
from fractal_forest.families import FAMILIES, HANOI, Level
from fractal_forest.graphs import (
    _REFLECT,
    LabelledEdge,
    LabelledGraph,
    _corners,
    _make_graph,
    apply_generator,
    build_hanoi,
    build_sierpinski,
    export_dot,
    graph_census,
)
from fractal_forest.oracle import ForestSpec
from fractal_forest.sierpinski import CountsTriple, FiveBundle, RotBundle
from fractal_forest.stats import LabelStat


def edge_set(g, with_labels=True):
    out = set()
    for e in g.nonloop_edges():
        u, v = g.vertices[e.u], g.vertices[e.v]
        out.add((u, v, e.label) if with_labels else (u, v))
    return out


# -- the schreier gasket by the paper's definition ----------------------------
# build_sierpinski glues three reflected copies; the paper contracts the
# hanoi graph, and these keep that construction as the reference


def hanoi_word_coordinates(n: int) -> dict:
    """Gasket coordinate of each length-n word (side 2^(n-1)).

    Words ending in 1, 0, 2 go to the top, left and right copy of the
    level below, reflected with respect to the bisectrix of their corner;
    the two endpoints of every contracted edge land on the same lattice
    point.
    """
    coords = {"0": (1, 0), "1": (0, 0), "2": (1, 1)}
    for k in range(n - 1):
        coords = {
            w + x: f(*p, 2**k) for w, p in coords.items() for x, f in zip("102", _REFLECT)
        }
    return coords


def schreier_by_contraction(n: int):
    """The hanoi graph without loops, every edge between two elementary
    triangles contracted, the surviving edges keeping their labels."""
    sigma = build_hanoi(n, include_loops=False)
    coords = hanoi_word_coordinates(n)
    named = []
    for e in sigma.edges:
        cu = coords[sigma.vertices[e.u]]
        cv = coords[sigma.vertices[e.v]]
        if cu == cv:
            continue  # a contracted edge between two elementary triangles
        named.append((min(cu, cv), max(cu, cv), e.label))
    return _make_graph("sierpinski-schreier", n, named, _corners(2 ** (n - 1)))


def test_generator_action_examples():
    assert apply_generator("a", "01") == "11"
    assert apply_generator("a", "22") == "22"
    assert apply_generator("c", "10") == "20"
    with pytest.raises(ValueError):
        apply_generator("a", "")
    with pytest.raises(ValueError):
        apply_generator("d", "0")


def test_generators_are_involutions_exhaustively():
    for n in range(1, 9):
        for tup in product("012", repeat=n):
            w = "".join(tup)
            for g in "abc":
                assert apply_generator(g, apply_generator(g, w)) == w


def test_hanoi_level1_with_loops():
    g = build_hanoi(1, include_loops=True)
    assert g.vertices == ("0", "1", "2")
    assert edge_set(g) == {("0", "1", "a"), ("0", "2", "b"), ("1", "2", "c")}
    loops = {g.vertices[e.u]: e.label for e in g.loops()}
    assert loops == {"0": "c", "1": "b", "2": "a"}


def test_hanoi_level2_and_3_shape():
    g2 = build_hanoi(2)
    assert len(g2.vertices) == 9
    assert len(g2.nonloop_edges()) == 12
    census = graph_census(g2)
    assert census["label_counts"] == {"a": 4, "b": 4, "c": 4}
    g3 = build_hanoi(3)
    assert len(g3.vertices) == 27
    assert len(g3.nonloop_edges()) == 39


def test_hanoi_loops_and_degrees_up_to_6():
    for n in range(1, 7):
        g = build_hanoi(n, include_loops=True)
        loops = {g.vertices[e.u]: e.label for e in g.loops()}
        assert loops == {"0" * n: "c", "1" * n: "b", "2" * n: "a"}
        assert all(d == 3 for d in g.degrees())
        assert g.is_connected_ignoring_loops()


def test_sierpinski_level1_shapes():
    rot = build_sierpinski(1, "rotational")
    assert len(rot.vertices) == 6 and len(rot.edges) == 9
    assert graph_census(rot)["label_counts"] == {"a": 3, "b": 3, "c": 3}
    d = build_sierpinski(1, "directional")
    assert len(d.vertices) == 3
    assert edge_set(d) == {
        ((0, 0), (1, 0), "a"),
        ((1, 0), (1, 1), "b"),
        ((0, 0), (1, 1), "c"),
    }
    s = build_sierpinski(2, "schreier")
    assert len(s.vertices) == 6 and len(s.edges) == 9
    assert graph_census(s)["label_counts"] == {"a": 3, "b": 3, "c": 3}
    with pytest.raises(ValueError):
        build_sierpinski(0, "rotational")
    with pytest.raises(ValueError):
        build_sierpinski(1, "mystery")


# the 27 labelled edges of the level-2 rotational gasket, read off the
# lattice drawing vertex by vertex
ROT2_GOLDEN = {
    ((3, 0), (4, 0), "b"),
    ((2, 0), (3, 0), "a"),
    ((1, 0), (2, 0), "b"),
    ((0, 0), (1, 0), "a"),
    ((0, 0), (1, 1), "b"),
    ((1, 1), (2, 2), "a"),
    ((2, 2), (3, 3), "b"),
    ((3, 3), (4, 4), "a"),
    ((4, 3), (4, 4), "b"),
    ((4, 2), (4, 3), "a"),
    ((4, 1), (4, 2), "b"),
    ((4, 0), (4, 1), "a"),
    ((1, 0), (1, 1), "c"),
    ((2, 0), (2, 1), "a"),
    ((2, 1), (2, 2), "b"),
    ((3, 0), (3, 1), "c"),
    ((3, 2), (3, 3), "c"),
    ((1, 0), (2, 1), "c"),
    ((1, 1), (2, 1), "c"),
    ((2, 0), (3, 1), "b"),
    ((3, 1), (4, 2), "a"),
    ((3, 0), (4, 1), "c"),
    ((2, 2), (3, 2), "a"),
    ((3, 2), (4, 2), "b"),
    ((3, 3), (4, 3), "c"),
    ((3, 1), (4, 1), "c"),
    ((3, 2), (4, 3), "c"),
}


def test_rotational_level2_golden_edges():
    g = build_sierpinski(2, "rotational")
    assert edge_set(g) == ROT2_GOLDEN


def test_per_label_counts_up_to_6():
    for n in range(1, 7):
        rot = graph_census(build_sierpinski(n, "rotational"))["label_counts"]
        assert rot == {"a": 3**n, "b": 3**n, "c": 3**n}
        for fam in ("directional", "schreier"):
            c = graph_census(build_sierpinski(n, fam))["label_counts"]
            assert c == {"a": 3 ** (n - 1), "b": 3 ** (n - 1), "c": 3 ** (n - 1)}


def test_vertex_counts():
    for n in range(1, 6):
        assert len(build_sierpinski(n, "rotational").vertices) == 3 * (3**n + 1) // 2
        assert len(build_sierpinski(n, "directional").vertices) == 3 * (3 ** (n - 1) + 1) // 2
        assert len(build_sierpinski(n, "schreier").vertices) == 3 * (3 ** (n - 1) + 1) // 2
        assert len(build_hanoi(n).vertices) == 3**n


def test_family_counts_match_built_graphs():
    # the CLI checks size caps on these counts without building the graph
    for family in FAMILIES.values():
        for n in range(1, 6):
            g = family.graph(n, False)
            assert family.vertices(n) == len(g.vertices), (family.name, n)
            assert family.edges(n) == len(g.nonloop_edges()), (family.name, n)


def test_graphs_are_read_only_and_built_once_per_level():
    g = build_hanoi(2)
    with pytest.raises(TypeError):
        g.corners["top"] = 0
    assert g.corners == {"top": 4, "left": 0, "right": 8}
    for family in FAMILIES.values():
        assert Level(family, 3).graph is Level(family, 3).graph
        with pytest.raises(TypeError):
            Level(family, 3).graph.corners["top"] = 0


def test_records_validate_stay_read_only_and_compare_by_value():
    # the records are tuples; what callers rely on holds as it did
    for bad, match in (((0, 1, "a", True), "loop flag"), ((2, 2, "a"), "loop flag"),
                       ((1, 0, "a"), "u <= v")):
        with pytest.raises(ValueError, match=match):
            LabelledEdge(*bad)
    for bad, match in ((("forest",), "unknown kind"), (("two-forest",), "isolated corner"),
                       (("tree", "top"), "only applies to two-forest")):
        with pytest.raises(ValueError, match=match):
            ForestSpec(*bad)
    corners = {"top": 1, "left": 0, "right": 2}
    g = LabelledGraph("hanoi", 1, ("0", "1", "2"), (LabelledEdge(0, 1, "a"),), corners)
    corners["top"] = 2
    assert g.corners == {"top": 1, "left": 0, "right": 2}
    with pytest.raises(TypeError):
        g.corners["top"] = 0
    records = (Weights.ones(), LabelledEdge(1, 1, "b", True), g, RotBundle(1, 2, 3),
               FiveBundle(1, 2, 3, 4, 5), CountsTriple(3, 1, 1), ForestSpec("two-forest", "top"),
               LabelStat(1, "a", Fraction(1), Fraction(2)), HANOI.checks[0], HANOI)
    for record in records:
        for name in (*record._fields, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert Weights.parse("2/4", "1", "3") == Weights.of(Fraction(1, 2), 1, 3)
    assert hash(Weights.parse("2/4", "1", "3")) == hash(Weights.of(Fraction(1, 2), 1, 3))
    assert Weights.of(1, 2, 3) != Weights.of(1, 3, 2)
    # a verify mismatch prints these
    assert repr(Weights.parse("1", "1/2", "3")) == (
        "Weights(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(3, 1))")
    assert str(Weights.parse("1", "1/2", "3")) == "(1,1/2,3)"
    assert repr(CountsTriple(3, 1, 1)) == "CountsTriple(tau=3, s=1, q=1)"


def test_unlabelled_agreement_of_the_three_gaskets():
    # same lattice, same unlabelled edges: directional/schreier level n vs
    # rotational level n-1
    for n in range(2, 5):
        rot = edge_set(build_sierpinski(n - 1, "rotational"), with_labels=False)
        for fam in ("directional", "schreier"):
            assert edge_set(build_sierpinski(n, fam), with_labels=False) == rot


def test_schreier_contraction_matches_reflection_recursion():
    for n in range(1, 8):
        by_contraction = schreier_by_contraction(n)
        by_reflection = build_sierpinski(n, "schreier")
        assert by_contraction.vertices == by_reflection.vertices
        assert by_contraction.edges == by_reflection.edges
        assert by_contraction.corners == by_reflection.corners


def graph_digest(g):
    edges = tuple((e.u, e.v, e.label, e.is_loop) for e in g.edges)
    return hashlib.sha256(repr((g.vertices, edges, sorted(g.corners.items()))).encode()).hexdigest()


# sha256 of (vertices, edges, corners) at levels 1, 2, ...: a change of
# vertex order, edge order, label or corner shows here
GRAPH_DIGESTS = {
    "rotational": (
        "baf4bffd90a80668506de939b2c98ff5236031da82fdb99c4be0443030be3438",
        "a68d9301b4b16ad8b1a2f62042a0d0486dde0cdb220edb6e56e2a5af9d1b2bb6",
        "2ab548641c8c731ae27df9104c4ce8e77627b84032271cf03f413327b2ef02f7",
        "44bd04fc6e7b3eb3a95db432e0c7a3bcb4266417fff194b6e4f638fdac6a79b6",
        "ded825f38261bfdd2637aa98aa46aa219e423549c4bbded8ce4f1aeaffb819bc",
        "a733025f42faae8c3e0efaa3737359832256f55041e89e18e403592d878fea1c",
    ),
    "directional": (
        "abc541b197d95f5d6760a0a9aa4f1aa2808b0533732eaca7968197a13f4a45a0",
        "d431b2e36248359b7a3400d6d8114ab31ad7b9bd118be9263b80551b653b70d3",
        "f6140aaf2660eebdf530c4db79faa4477eaaa139bfdc754d97e89a2014d81c38",
        "01e769e80a679b7992c26438cddbe8e1326ab2387c6feac9a3a5b8aed9069a33",
        "8db76cad3340ea1279a2264ac0ac45b9f6f80386652c6b0f9bea44c65037d4d5",
        "1fe6ae4f5a8bdbfc40ab592b95c0208fb3b54bbcfcc77f7711a1781ccfeec895",
    ),
    "schreier": (
        "abc541b197d95f5d6760a0a9aa4f1aa2808b0533732eaca7968197a13f4a45a0",
        "40f60178f2164a369d7e594ce946de9f01d2383b8a231ba92047f28cef440a43",
        "dc7235cff625c83f7eeac274ca5bfcca2ff89d391d1a6c8590e462e6974fb3da",
        "93f7fbe2edbdfc54be7b02bfadf60ccc0bdfd2f9215fa3276080a51b7eb69392",
        "0923b2ce8a0ba71f7c2dff2dd070515eff5ee424eb98ad75054d6fc13212ab8d",
        "687f26b12a6d13de29570ddc090de5c8e42b54023b06d806089b388421534885",
    ),
}
HANOI_WITH_LOOPS_DIGESTS = (
    "6db65ea49163d105112a41bc3acf4142bff4545839f1427fa812bfb26c740730",
    "593a16e50ec153af75d34e902260dd09622fe55d8bb096c10ac821a564266c88",
    "9ecaba940e71e4271289b8d3c18f249557cc2525ed8447286d172d088f626bf8",
    "430d25257f37584abf02466f0bbaa237b7daffeaa4e0836e008a8c3a1e8a6ae9",
    "8236f897104c51fd792e9c8ee4c50dd78f668ed3dd55021e9549dc44a0215873",
    "28c0953108b86599d2331f1d881b570a17034fe5a6be79ab08f523e432511b0b",
)
WORD_COORDINATE_DIGESTS = (
    "e0c762a939a925f0cca8f82906a2af155dd18d72010161ecec5874a82bd405d0",
    "709a77dc8ada74199b593defe4315adcec8817261d30803c86725adae641a382",
    "07462e4f8bfcb3e7ad3784c21375d009138f30527afcf4d1ed6621fb6171d252",
    "030f15ae4216b5eed0f95cf6e0682d42c454d105ec92603b40337e89c6604c98",
    "2670286973742e764c54f2cfcd85e9f7a3101665acb4578dbaf39a2d5afea1ee",
    "d7e3ef9fb94dfa0bb186804f8b89e86961014e97b21fcc0bb604e8c9f5a86737",
)


def test_graphs_identical_to_pinned_digests():
    for labelling, digests in GRAPH_DIGESTS.items():
        for n, digest in enumerate(digests, start=1):
            assert graph_digest(build_sierpinski(n, labelling)) == digest, (labelling, n)
    for n, digest in enumerate(GRAPH_DIGESTS["schreier"], start=1):
        assert graph_digest(schreier_by_contraction(n)) == digest, n
    # the source of the decimation's matrices
    for n, digest in enumerate(HANOI_WITH_LOOPS_DIGESTS, start=1):
        assert graph_digest(build_hanoi(n, include_loops=True)) == digest, n
    for n, digest in enumerate(WORD_COORDINATE_DIGESTS, start=1):
        coords = repr(sorted(hanoi_word_coordinates(n).items()))
        assert hashlib.sha256(coords.encode()).hexdigest() == digest, n


def test_word_coordinates_collapse_exactly_the_bridges():
    for n in range(1, 5):
        coords = hanoi_word_coordinates(n)
        g = build_hanoi(n)
        collisions = set()
        for e in g.nonloop_edges():
            u, v = g.vertices[e.u], g.vertices[e.v]
            if coords[u] == coords[v]:
                collisions.add(frozenset((u, v)))
        # bridge edges joining two elementary triangles: (3^n - 3) / 2
        assert len(collisions) == (3**n - 3) // 2
        assert len(set(coords.values())) == (3**n + 3) // 2


def test_census_examples():
    c = graph_census(build_sierpinski(2, "rotational"))
    assert (c["vertices"], c["edges"]) == (15, 27)
    c2 = graph_census(build_hanoi(2))
    assert (c2["vertices"], c2["edges"]) == (9, 12)
    assert c2["degree_histogram"] == {"2": 3, "3": 6}
    c1 = graph_census(build_hanoi(1, include_loops=True))
    assert (c1["vertices"], c1["edges"], c1["loops"]) == (3, 3, 3)


def test_dot_export_deterministic():
    g = build_hanoi(1, include_loops=True)
    text = export_dot(g)
    assert text == export_dot(build_hanoi(1, include_loops=True))
    node_lines = [l for l in text.splitlines() if l.endswith('";')]
    edge_lines = [l for l in text.splitlines() if "--" in l]
    assert len(node_lines) == 3
    assert len(edge_lines) == 6  # 3 edges + 3 loops
    rot = export_dot(build_sierpinski(1, "rotational"))
    assert sum("--" in l for l in rot.splitlines()) == 9
