import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fractal_forest import cli
from fractal_forest import families
from fractal_forest import hanoi
from fractal_forest import kirchhoff
from fractal_forest import oracle
from fractal_forest import sierpinski
from fractal_forest import stats
from fractal_forest.algebra import FactoredPoly, TriPoly, Weights, clear_denominators
from fractal_forest.errors import DecimationSingularError
from fractal_forest.graphs import LabelledGraph
from fractal_forest.hanoi import hanoi_bundle

from conftest import SINGULAR_STATE, reference_divergence, src_env, table_numerators


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_generate_census(capsys):
    code, data = run_json(
        capsys, "generate", "--family", "hanoi", "--level", "2", "--format", "json"
    )
    assert code == 0
    assert data["vertices"] == 9
    assert data["label_counts"] == {"a": 4, "b": 4, "c": 4}


def test_generate_dot(capsys):
    code, out = run(
        capsys, "generate", "--family", "sierpinski-rot", "--level", "1", "--format", "dot"
    )
    assert code == 0
    assert sum("--" in line for line in out.splitlines()) == 9


def test_generate_bad_level_is_usage_error(capsys):
    assert cli.main(["generate", "--family", "hanoi", "--level", "0"]) == 2
    assert cli.main(["generate", "--family", "klein", "--level", "1"]) == 2


def test_gf_hanoi_all_methods(capsys):
    code, data = run_json(
        capsys,
        "gf", "--family", "hanoi", "--level", "3",
        "--weights", "1", "1", "1", "--method", "all",
    )
    assert code == 0
    assert data["value"] == "20503125"
    assert data["agreement"] is True
    assert set(data["methods"]) == {"recursion", "closed", "cofactor", "schur"}
    assert data["D_orbit"] == ["320"]


def test_gf_rotational_level2(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "sierpinski-rot", "--level", "2", "--weights", "1", "1", "1"
    )
    assert code == 0
    assert data["value"] == "524880"


def test_gf_weighted_level1(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "1", "--weights", "1", "2", "3"
    )
    assert code == 0
    assert data["value"] == "11"


def test_gf_rejects_float_weights(capsys):
    assert (
        cli.main(["gf", "--family", "hanoi", "--level", "1", "--weights", "1.5", "1", "1"])
        == 2
    )


def test_gf_fraction_weights_stay_exact(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "2", "--weights", "1/3", "2/7", "5"
    )
    assert code == 0
    assert "/" in data["value"]


def test_gf_symbolic_beyond_cap_is_capability_error(capsys):
    assert (
        cli.main(["gf", "--family", "hanoi", "--level", "9", "--mode", "symbolic"]) == 3
    )


def test_gf_schur_on_gasket_is_usage_error(capsys):
    assert (
        cli.main(
            ["gf", "--family", "sierpinski-rot", "--level", "2", "--method", "schur"]
        )
        == 2
    )


def test_gf_deterministic_given_seed(capsys):
    argv = ["gf", "--family", "hanoi", "--level", "3", "--weights", "2/3", "1/5", "7",
            "--method", "all", "--seed", "5"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FRACTAL_FOREST_SEED", "12345")
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "1", "--weights", "1", "1", "1"
    )
    assert code == 0 and data["seed"] == 12345


def test_verify_all_families_pass(capsys):
    code, data = run_json(
        capsys, "verify", "--levels", "1..3", "--trials", "3", "--seed", "9"
    )
    assert code == 0
    assert data["status"] == "ok"
    assert data["failures"] == []


def test_verify_hanoi_levels_1_to_4(capsys):
    code, data = run_json(
        capsys, "verify", "--family", "hanoi", "--levels", "1..4",
        "--trials", "10", "--seed", "7",
    )
    assert code == 0
    assert data["status"] == "ok"


def test_gf_reports_forest_components(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "2", "--weights", "1", "1", "1"
    )
    assert code == 0
    assert data["components"] == {
        "T": "135", "U": "120", "R": "120", "L": "120", "Q": "320"
    }


def test_gf_symbolic_rotational(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "sierpinski-rot", "--level", "1", "--mode", "symbolic"
    )
    assert code == 0
    assert data["agreement"] is True
    assert data["closed"]["Q"] == "(a + b)^1 * (a + b + 3*c)^2"


@pytest.mark.parametrize("family", ["sierpinski-rot", "sierpinski-dir", "sierpinski-schreier"])
def test_gf_symbolic_agrees_exactly_at_the_symbolic_cap(capsys, family):
    # the closed form expands within its degree cap at level 3
    code, data = run_json(capsys, "gf", "--family", family, "--level", "3", "--mode", "symbolic")
    assert code == 0
    assert data["agreement"] is True


def test_gf_symbolic_disagreement_exits_1(capsys, monkeypatch):
    dir_closed = sierpinski.dir_closed

    def doubled_tree(n, w=sierpinski.SYMBOLS, names=sierpinski.FIVE):
        b = dir_closed(n, w, names)
        return b._replace(T=FactoredPoly({**b.T.primes, 2: b.T.primes[2] + 1}, b.T.factors))

    monkeypatch.setattr(sierpinski, "dir_closed", doubled_tree)
    code, data = run_json(
        capsys, "gf", "--family", "sierpinski-dir", "--level", "2", "--mode", "symbolic"
    )
    assert code == 1
    assert data["agreement"] is False


def _rot_tree_exponent_off_by_one(monkeypatch):
    rot_closed = sierpinski.rot_closed

    def wrong(n, w=sierpinski.SYMBOLS):
        b = rot_closed(n, w)
        (base, exp), *rest = b.T.factors
        return b._replace(T=FactoredPoly(b.T.primes, [(base, exp + 1), *rest]))

    monkeypatch.setattr(sierpinski, "rot_closed", wrong)


def _directional_law_off_by_one(monkeypatch):
    mapping, twos = sierpinski._FIVE_MODELS["directional"]

    def wrong(n):
        two_t, two_corner, two_q = twos(n)
        return two_t, two_corner, two_q + 1

    monkeypatch.setitem(sierpinski._FIVE_MODELS, "directional", (mapping, wrong))


def _schreier_corner_base_exponent_off_by_one(monkeypatch):
    schreier_closed = sierpinski.schreier_closed

    def wrong(n, w=sierpinski.SYMBOLS, names=sierpinski.FIVE):
        b = schreier_closed(n, w, names)
        if b.U is None:
            return b
        *rest, (corner, exp) = b.U.factors
        return b._replace(U=FactoredPoly(b.U.primes, [*rest, (corner, exp + 1)]))

    monkeypatch.setattr(sierpinski, "schreier_closed", wrong)


@pytest.mark.parametrize("family, label, corrupt", [
    ("sierpinski-rot", "rotational", _rot_tree_exponent_off_by_one),
    ("sierpinski-dir", "directional", _directional_law_off_by_one),
    ("sierpinski-schreier", "schreier", _schreier_corner_base_exponent_off_by_one),
])
def test_verify_catches_a_wrong_gasket_closed_form(capsys, monkeypatch, family, label, corrupt):
    # the closed form and the recursion are compared as products of powers;
    # one exponent off by one must still be a mismatch
    corrupt(monkeypatch)
    code, data = run_json(capsys, "verify", "--family", family, "--levels", "9..9",
                          "--trials", "1", "--seed", "1")
    assert code == 1 and data["status"] == "mismatch"
    [failure] = [f for f in data["failures"] if f["check"] == f"{label} closed = recursion"]
    assert failure["level"] == 9 and set(failure["detail"]) == {"weights"}


@pytest.mark.parametrize(
    "family, method",
    [(f, m) for f in ("hanoi", "sierpinski-rot", "sierpinski-dir", "sierpinski-schreier")
     for m in ("cofactor", "schur", "oracle")] + [("hanoi", "closed")],
)
def test_gf_symbolic_rejects_methods_it_does_not_run(capsys, family, method):
    argv = ["gf", "--family", family, "--level", "2", "--mode", "symbolic", "--method", method]
    assert cli.main(argv) == 2
    assert "no symbolic mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, method",
    [("hanoi", "all"), ("sierpinski-dir", "closed"), ("sierpinski-dir", "all")],
)
def test_gf_symbolic_accepts_the_routes_it_runs(capsys, family, method):
    base = ["gf", "--family", family, "--level", "2", "--mode", "symbolic"]
    code, data = run_json(capsys, *base, "--method", method)
    _, default = run_json(capsys, *base)
    assert code == 0
    assert data == {**default, "method": method}


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_is_usage_error(capsys, trials):
    argv = ["verify", "--family", "hanoi", "--levels", "1..2", "--trials", trials]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_gf_schur_fallback_records_cofactor(capsys, monkeypatch):
    def boom(n, w):
        raise DecimationSingularError("forced")

    monkeypatch.setattr(kirchhoff, "schur_pipeline", boom)
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "3", "--method", "schur"
    )
    assert code == 0
    assert data["methods"]["schur"] == "20503125"
    assert data["fallbacks"] and "cofactor" in data["fallbacks"][0]


def test_gf_all_skips_singular_decimation(capsys):
    # the cofactor runs as its own route; a fallback copy of it must not
    # count as an independent schur value
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "3",
        "--weights", "0", "0", "0", "--method", "all",
    )
    assert code == 0
    assert data["methods"] == {"recursion": "0", "cofactor": "0"}
    assert "decimation singular" in data["skipped"]["schur"]
    assert data["fallbacks"] == []


def test_gf_all_skips_decimation_below_level_3(capsys):
    # below level 3 the schur route is the cofactor computed a second time
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "2",
        "--weights", "1", "2", "3", "--method", "all",
    )
    assert code == 0
    assert data["methods"] == {"recursion": "23353", "cofactor": "23353", "oracle": "23353"}
    assert data["skipped"]["schur"] == "no decimation step below level 3"
    assert "D_orbit" not in data


def test_gf_schur_below_level_3_records_cofactor(capsys):
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "2",
        "--weights", "1", "2", "3", "--method", "schur",
    )
    assert code == 0
    assert data["methods"] == {"schur": "23353"}
    assert data["fallbacks"] == ["no decimation step below level 3; used cofactor"]


def test_gf_routes_read_one_graph_per_level(capsys, monkeypatch):
    # the schur route below level 3, the cofactor and the oracle all read
    # the Level's graph, built once per family and level in a process
    built = []
    new = LabelledGraph.__new__

    def counted(cls, family, level, *rest):
        built.append((family, level))
        return new(cls, family, level, *rest)

    monkeypatch.setattr(LabelledGraph, "__new__", counted)
    monkeypatch.setattr(families, "_GRAPHS", {})
    for level in ("1", "2"):
        for method in ("schur", "cofactor", "oracle"):
            code, data = run_json(capsys, "gf", "--family", "hanoi", "--level", level,
                                  "--weights", "1", "2", "3", "--method", method)
            assert code == 0 and data["value"] == {"1": "11", "2": "23353"}[level]
    assert built == [("hanoi", 1), ("hanoi", 2)]


def test_oracle_enumerates_one_tree_polynomial_per_level(capsys, monkeypatch):
    # the oracle route and verify's oracle tree count evaluate the level's
    # weight-free tree polynomial, enumerated once per family and level in
    # a process
    enumerate_gf = oracle.enumerate_gf
    enumerated = []

    def counted(g, spec):
        enumerated.append((g.family, g.level))
        return enumerate_gf(g, spec)

    monkeypatch.setattr(oracle, "enumerate_gf", counted)
    monkeypatch.setattr(families, "_TREE_POLYNOMIALS", {})
    levels = (("sierpinski-rotational", 1), ("hanoi", 1), ("hanoi", 2))
    for family, level in levels:
        g = families.FAMILIES[family].graph(level, False)
        for weights in (("1", "2", "3"), ("1/3", "2", "5")):
            code, data = run_json(capsys, "gf", "--family", family, "--level", str(level),
                                  "--weights", *weights, "--method", "all")
            fresh = enumerate_gf(g, oracle.ForestSpec("tree")).evaluate(Weights.parse(*weights))
            assert code == 0 and data["methods"]["oracle"] == str(fresh)
    code, data = run_json(capsys, "verify", "--family", "hanoi", "--levels", "1..2",
                          "--trials", "1")
    assert code == 0 and data["checks_run"] == 9
    assert enumerated == list(levels) == list(families._TREE_POLYNOMIALS)
    for (family, level), poly in families._TREE_POLYNOMIALS.items():
        g = families.FAMILIES[family].graph(level, False)
        assert poly == enumerate_gf(g, oracle.ForestSpec("tree"))


def test_cofactor_plans_are_kept_per_family_and_level(capsys, monkeypatch):
    # rot-4, dir-5 and schreier-5 share one sparsity pattern under three
    # labellings: a template must be kept per family and level, for it
    # holds the labels
    monkeypatch.setattr(families, "_COFACTOR_TEMPLATES", {})
    cells = (("sierpinski-rot", 4), ("sierpinski-dir", 5), ("sierpinski-schreier", 5))
    weights = ("13/61", "44/17", "7/90")
    templates = [kirchhoff.cofactor_template(families.lookup(name).graph(n, False))
                 for name, n in cells]
    assert len({template.plan.layouts for template in templates}) == 1
    expected = [kirchhoff._sparse_det(template.rows(Weights.parse(*weights)))
                for template in templates]
    assert len(set(expected)) == 3
    kept = families._COFACTOR_TEMPLATES
    first = None
    for _ in range(2):
        for (name, n), value in zip(cells, expected):
            code, data = run_json(capsys, "gf", "--family", name, "--level", str(n),
                                  "--weights", *weights, "--method", "all")
            assert code == 0 and data["methods"]["cofactor"] == str(value), (name, n)
        first = first or dict(kept)
    assert list(kept) == [(families.lookup(name).name, n) for name, n in cells]
    assert all(kept[key] is template for key, template in first.items())


def test_each_decimation_template_is_planned_once(capsys, monkeypatch):
    # in one process, verify at levels 3-4 and a level-5 decimation plan
    # each template once: the network of the rederived map, lambda_3 and
    # lambda_2 for the decimation identity and the run, and the cofactors
    # of hanoi-3 and hanoi-4; no planned pivot vanishes at these states
    monkeypatch.setattr(families, "_COFACTOR_TEMPLATES", {})
    kirchhoff._network.cache_clear()
    plan = kirchhoff._plan
    planned = []

    def counted(pattern, keep=(), *args):
        planned.append((len(pattern), tuple(keep)))
        return plan(pattern, keep, *args)

    monkeypatch.setattr(kirchhoff, "_plan", counted)
    code, data = run_json(capsys, "verify", "--family", "hanoi", "--levels", "3..4",
                          "--trials", "3", "--seed", "5")
    assert code == 0 and data["checks_run"] > 0
    code, data = run_json(capsys, "gf", "--family", "hanoi", "--level", "5",
                          "--method", "schur")
    assert code == 0 and data["methods"]["schur"]
    corners = kirchhoff._CORNERS
    assert sorted(planned) == [(9, ()), (9, corners), (26, ()), (27, ()), (80, ())], planned


@pytest.mark.parametrize(
    "family, checks_run",
    [("hanoi", 26), ("sierpinski-rot", 17), ("sierpinski-dir", 15), ("sierpinski-schreier", 15)],
)
def test_verify_matrix_size_per_family(capsys, family, checks_run):
    code, data = run_json(
        capsys, "verify", "--family", family, "--levels", "1..4", "--trials", "2",
        "--seed", "9",
    )
    assert code == 0
    assert data["checks_run"] == checks_run


def test_verify_runs_the_decimation_where_gf_all_does(capsys, monkeypatch):
    # below level 3 the decimation is the cofactor again; verify skips it
    # there, as gf --method all does
    def refuse(*args):
        raise AssertionError("the decimation ran")

    argv = ["verify", "--family", "hanoi", "--trials", "2", "--seed", "9", "--levels"]
    with monkeypatch.context() as patch:
        patch.setattr(kirchhoff, "decimation_run", refuse)
        assert cli.main(argv + ["1..2"]) == 0
        with pytest.raises(AssertionError, match="the decimation ran"):
            cli.main(argv + ["3..3"])
    # where the runs agree, verify folds neither of them into a value
    monkeypatch.setattr(kirchhoff, "schur_pipeline", refuse)
    assert cli.main(argv + ["3..9"]) == 0


def test_every_family_route_is_in_the_route_table():
    for family in families.FAMILIES.values():
        assert set(family.routes) <= set(families.ROUTES), family.name


def test_every_family_route_is_a_method_choice(capsys):
    for family in families.FAMILIES.values():
        for route in family.routes:
            args = cli._parser().parse_args(
                ["gf", "--family", family.name, "--level", "1", "--method", route])
            assert args.method == route, (family.name, route)
    # the choices are the route table's keys, in the order gf --help lists them
    with pytest.raises(SystemExit):
        cli._parser().parse_args(["gf", "--help"])
    assert "--method {recursion,closed,cofactor,schur,oracle,all}" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["hanoi", "sierpinski-rot", "sierpinski-dir",
                                    "sierpinski-schreier"])
def test_each_route_alone_gives_its_value_under_all(capsys, family):
    for level in range(1, 5):
        for weights in (("1", "1", "1"), ("1/3", "2/7", "5"), ("0", "0", "0")):
            argv = ["gf", "--family", family, "--level", str(level), "--weights", *weights,
                    "--method"]
            code, data = run_json(capsys, *argv, "all")
            assert code == 0 and data["methods"]
            for route, value in data["methods"].items():
                code, alone = run_json(capsys, *argv, route)
                assert code == 0
                assert alone["methods"] == {route: value}, (level, weights, route)


def test_level_caps_checked_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expensive work started past the level cap")

    expensive = (
        "build_hanoi", "build_sierpinski", "hanoi_step", "rot_step", "dir_step",
        "schreier_step", "rot_closed", "rot_counts", "schur_map",
    )
    for name, module in list(sys.modules.items()):
        if name.startswith("fractal_forest"):
            for attr in expensive:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert cli.main(["gf", "--family", "hanoi", "--level", "13", "--method", "all"]) == 3
    assert cli.main(
        ["verify", "--family", "sierpinski-rot", "--levels", "13..13", "--trials", "1"]
    ) == 3
    assert cli.main(["gf", "--family", "hanoi", "--level", "13", "--method", "schur"]) == 3
    capsys.readouterr()
    assert cli.main(["generate", "--family", "hanoi", "--level", "13"]) == 3
    assert "graphs are capped at level 12" in capsys.readouterr().err


def corrupt_map_term(monkeypatch, i, delta: int):
    """Add delta to the first coefficient of a table of the decimation map,
    the denominator's for i = "D", else P_i's, in the table and in the
    kernel compiled from it."""
    tables = dict(kirchhoff._map_tables())
    (coeff, exps), *rest = tables[i][0]
    corrupted = ((coeff + delta, exps), *rest)
    tables[i] = corrupted, kirchhoff._compile(kirchhoff._horner(corrupted))
    monkeypatch.setattr(kirchhoff, "_map_tables", lambda: tables)


def fraction_guards(levels, trials, rng):
    """The map guards as written in Fractions, with the map rederived by
    seven separate determinants and the tables evaluated term by term:
    the reference for the draws, the kind and number of the guards and
    their details."""
    for _ in range(trials):
        div = reference_divergence(kirchhoff.SchurState.random(rng))
        yield "schur map = rederived", None, not div, div or None
    if max(levels) >= 3:
        for _ in range(2):
            state = kirchhoff.SchurState.random(rng)
            # det lambda_3(s) = D^3 det lambda_2(P(s)) times D^6, with
            # D^9 det lambda_2(P(s)) = det lambda_2(D P(s)): an identity of
            # polynomials, which holds where D vanishes too
            d, numerators = table_numerators(state)
            lhs = kirchhoff._sparse_det(kirchhoff.lambda_matrix(3, state)) * d**6
            scaled = kirchhoff.SchurState(*(x * d for x in state[:3]), *numerators)
            rhs = kirchhoff._sparse_det(kirchhoff.lambda_matrix(2, scaled))
            yield "decimation identity k=3", None, lhs == rhs, None


@pytest.mark.parametrize("singular", (False, True))
def test_map_guards_draw_and_report_as_the_fraction_guards(monkeypatch, singular):
    if singular:
        # a draw whose x1 has an even numerator becomes a state where D
        # vanishes, which both guards take as drawn: D and the inner
        # determinant agree at 0, and the identity holds
        draw = kirchhoff.SchurState.random.__func__

        def draw_or_singular(cls, rng):
            state = draw(cls, rng)
            return state if state.x1.numerator % 2 else SINGULAR_STATE

        monkeypatch.setattr(kirchhoff.SchurState, "random", classmethod(draw_or_singular))
    for top in (2, 3):
        for trials in range(1, 5):
            rng, reference_rng = random.Random(trials), random.Random(trials)
            got = list(families._schur_map_guards((1, top), trials, rng))
            assert got == list(fraction_guards((1, top), trials, reference_rng))
            assert rng.getstate() == reference_rng.getstate()
            assert all(ok for _, _, ok, _ in got)
            assert len(got) == trials + 2 * (top == 3)


@pytest.mark.parametrize("table", ("D", 4, 5, 6, 7, 8, 9))
def test_both_map_guards_catch_one_coefficient_off(capsys, monkeypatch, table):
    corrupt_map_term(monkeypatch, table, 1)
    code, data = run_json(
        capsys, "verify", "--family", "hanoi", "--levels", "3..3", "--trials", "2",
        "--seed", "9",
    )
    assert code == 1
    failed = {f["check"] for f in data["failures"]}
    assert {"schur map = rederived", "decimation identity k=3"} <= failed
    # the mismatch details are the reference's, byte for byte
    rng, reference_rng = random.Random(9), random.Random(9)
    got = list(families._schur_map_guards((3,), 2, rng))
    assert got == list(fraction_guards((3,), 2, reference_rng))
    assert not any(ok for _, _, ok, _ in got)


def test_divergence_reports_a_singular_inner_block_as_a_mismatch(monkeypatch):
    # one coefficient off in D makes the table's D nonzero where the inner
    # block is singular: a mismatch of D, not an elimination error
    corrupt_map_term(monkeypatch, "D", 1)
    assert kirchhoff.schur_map_divergence(SINGULAR_STATE) == {"D": ("1225", "0")}
    assert kirchhoff._rederive(clear_denominators(SINGULAR_STATE)[0])[0] == 0


def test_verify_reports_a_vanishing_d_table_without_drawing_again():
    # a D table that vanishes everywhere is a mismatch of D at the one
    # drawn state, reported at once; the run must not draw without end
    script = ("import sys; from fractal_forest import cli, kirchhoff; "
              "kirchhoff._map_tables()['D'] = ((), kirchhoff._compile(0)); "
              "sys.exit(cli.main(sys.argv[1:]))")
    argv = ["verify", "--family", "hanoi", "--levels", "1..1", "--trials", "1", "--seed", "1"]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert done.returncode == 1
    (failure,) = json.loads(done.stdout)["failures"]
    assert failure["check"] == "schur map = rederived"
    assert list(failure["detail"]) == ["D"] and failure["detail"]["D"][0] == "0"


def test_exact_commands_never_load_mpmath():
    # only the normality gap and log_evaluate do real-number work; the
    # package and the exact commands start without mpmath, in a fresh
    # interpreter, and the first real-number call loads it
    script = """if True:
        import sys
        from fractal_forest import cli
        from fractal_forest.algebra import Weights
        from fractal_forest.sierpinski import rot_closed
        for argv in (["gf", "--family", "hanoi", "--level", "3", "--method", "all"],
                     ["verify", "--family", "sierpinski-rot", "--levels", "1..2",
                      "--trials", "1", "--seed", "1"],
                     ["stats", "--level", "2", "--label", "a"]):
            assert cli.main(argv) == 0, argv
        assert "mpmath" not in sys.modules
        assert cli.main(["stats", "--level", "3", "--label", "c", "--normality"]) == 0
        assert rot_closed(2).T.log_evaluate(Weights.ones()) > 0
        assert "mpmath" in sys.modules
    """
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"normality_gap"' in done.stdout


def test_cli_starts_without_dataclasses_and_builds_the_map_tables_on_first_use():
    # the records are tuples, so no command loads dataclasses (or the
    # inspect module it imports); the decimation map's tables are parsed,
    # built into Horner schemes and compiled to kernels by the first
    # decimation, once
    script = """if True:
        import sys
        from fractal_forest import cli, kirchhoff

        compiled = []
        compile_scheme = kirchhoff._compile

        def counted(scheme):
            compiled.append(scheme)
            return compile_scheme(scheme)

        kirchhoff._compile = counted

        def loaded():
            return {"dataclasses", "inspect"} & set(sys.modules)

        def builds():
            return kirchhoff._map_tables.cache_info().misses

        assert not loaded() and builds() == 0
        for argv in (["gf", "--family", "sierpinski-rot", "--level", "3", "--method", "all"],
                     ["generate", "--family", "hanoi", "--level", "2"]):
            assert cli.main(argv) == 0, argv
        assert not loaded() and builds() == 0 and not compiled
        assert cli.main(["gf", "--family", "hanoi", "--level", "3", "--method", "all"]) == 0
        assert not loaded() and builds() == 1 and len(compiled) == 7
        assert cli.main(["gf", "--family", "hanoi", "--level", "4", "--method", "schur"]) == 0
        assert builds() == 1 and len(compiled) == 7
    """
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"schur": "20503125"' in done.stdout


def test_verify_with_corrupted_map_term_fails(capsys, monkeypatch):
    corrupt_map_term(monkeypatch, 4, 1)
    code, data = run_json(
        capsys, "verify", "--family", "hanoi", "--levels", "3..3", "--trials", "2",
        "--seed", "9",
    )
    assert code == 1
    assert data["status"] == "mismatch"
    assert data["failures"]


def test_verify_reports_divergent_coordinates(capsys, monkeypatch):
    corrupt_map_term(monkeypatch, 5, 2)
    code, data = run_json(
        capsys, "verify", "--family", "hanoi", "--levels", "1..1", "--trials", "2",
        "--seed", "9",
    )
    assert code == 1
    diverging = [f for f in data["failures"] if f["check"] == "schur map = rederived"]
    assert diverging and "x5" in diverging[0]["detail"]


def test_stats_command(capsys):
    code, data = run_json(capsys, "stats", "--level", "1", "--label", "c")
    assert code == 0
    assert data["mean"] == "4/3" and data["variance"] == "4/9"
    assert data["matches_closed_form"] is True
    code, data = run_json(
        capsys, "stats", "--level", "4", "--label", "c", "--normality"
    )
    assert code == 0 and float(data["normality_gap"]) > 0


def test_normality_gap_is_rotational_only(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a statistic was computed")

    monkeypatch.setattr(stats, "label_mean_gf", refuse)
    monkeypatch.setattr(stats, "label_moments", refuse)
    for model in ("hanoi", "sierpinski-dir", "sierpinski-schreier"):
        argv = ["stats", "--model", model, "--level", "2", "--label", "a", "--normality"]
        assert cli.main(argv) == 2
    assert "normality gap does not apply" in capsys.readouterr().err


def test_hanoi_stats_form_no_polynomial_product(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a TriPoly product was formed")

    monkeypatch.setattr(TriPoly, "__mul__", refuse)
    monkeypatch.setattr(TriPoly, "__rmul__", refuse)
    code, data = run_json(capsys, "stats", "--model", "hanoi", "--level", "3", "--label", "a")
    assert code == 0 and data["mean"] == "26/3"


def test_stats_cap_is_checked_before_any_step(capsys, monkeypatch):
    def refuse(bundle):
        raise AssertionError("a recursion step ran")

    monkeypatch.setattr(hanoi, "hanoi_step", refuse)
    with pytest.raises(AssertionError):
        cli.main(["stats", "--model", "hanoi", "--level", "2", "--label", "a"])
    assert cli.main(["stats", "--model", "hanoi", "--level", "13", "--label", "a"]) == 3
    assert "hanoi statistics are capped at level 12" in capsys.readouterr().err


def test_gf_past_the_int_string_digit_limit(capsys):
    # the hanoi level-8 tree count at these weights has more than 4300 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, data = run_json(
        capsys, "gf", "--family", "hanoi", "--level", "8", "--weights", "1/3", "2/7", "5",
        "--method", "all",
    )
    assert code == 0 and data["agreement"] is True
    assert len(data["value"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_decimation_singular_exit_code(capsys, monkeypatch):
    def boom(n, w):
        raise DecimationSingularError("forced")

    monkeypatch.setattr(kirchhoff, "schur_pipeline", boom)
    monkeypatch.setattr(families, "COFACTOR_VERTEX_CAP", 0)
    assert (
        cli.main(["gf", "--family", "hanoi", "--level", "3", "--method", "schur"]) == 4
    )


def test_csv_and_text_formats(capsys):
    code, out = run(
        capsys, "stats", "--level", "1", "--label", "c", "--format", "csv"
    )
    assert code == 0 and out.startswith("key,value")
    code, out = run(
        capsys, "generate", "--family", "hanoi", "--level", "1", "--format", "text"
    )
    assert code == 0 and "vertices: 3" in out
    # nested census fields flatten as in every other report
    assert "\nlabel_counts.a: " in out and "{" not in out


# sha256 of the whole stdout of gf --method all at weights 13/61 44/17 7/90;
# it covers components, methods, value and, for hanoi, D_orbit
GF_ALL_PINS = {
    ("hanoi", 6): "ce3a07e64136d830911efcaa2a1566412837f4e10e8640cd531b90c4905f8614",
    ("hanoi", 7): "196d3b1bcaf5ceb0acc5e616252a1b6148d62511e0efa6217b36b1cdab2e9781",
    ("hanoi", 8): "9d59b837b7558c0a6af04ca80f49639783a17658eadf754e2c8f6634d610344c",
    ("sierpinski-rot", 6): "bdf3aeb62c545cfcc8eff1fa9dda64f079751794989bfccdf87259177cac3a87",
    ("sierpinski-rot", 7): "5178b3a00e820011ece60cd5cd5de9606879e4c739b20a457d0ceec6107a2764",
    ("sierpinski-rot", 8): "9fa027f951671066c008e42956c42ff03ab8bd6be9122e87a3f7f20a46e44d47",
    ("sierpinski-dir", 6): "3d6495c11c763b4891bf299b40e7dbe451f7098f231d67dbe60f43586bf8a43b",
    ("sierpinski-dir", 7): "28a55e3cfcf892203f162ffc6687a847aa41090f504e5e7b941cb9b52ef801d7",
    ("sierpinski-dir", 8): "bd14107ec4dddaae8a70eee166e48a2115bc172aec565023097a990c1444af7b",
    ("sierpinski-schreier", 6): "2e0e5abef8cd694baf9d333e5b082419513be56501ef441a03c40e26ff83cb8b",
    ("sierpinski-schreier", 7): "34667a994c6088488b366754c59d016e96feb50098d679d4fca9306cf9e0b4bc",
    ("sierpinski-schreier", 8): "98eb1486bbe1b83d07843673a38e0d5eaedac0750aaa90de274eada9471a2e21",
}


@pytest.mark.parametrize("family, level", sorted(GF_ALL_PINS))
def test_gf_all_output_pinned(capsys, family, level):
    code, out = run(
        capsys, "gf", "--family", family, "--level", str(level),
        "--weights", "13/61", "44/17", "7/90", "--method", "all",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GF_ALL_PINS[family, level]


def test_verify_mismatch_reports_values_at_the_drawn_weights(capsys, monkeypatch):
    # the decimation map with one coefficient off by one: the routes run at
    # integer weights, and the report gives the values at the drawn ones
    corrupt_map_term(monkeypatch, 4, 1)
    code, out = run(
        capsys, "verify", "--family", "hanoi", "--levels", "3..4", "--trials", "2",
        "--seed", "9",
    )
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d4dbcdfc70fd6c2537059892056b4cb0773b0ecaa351ca50579a0c1d10d70929"
    )
    failures = [f for f in json.loads(out)["failures"] if f["check"] == "hanoi recursion=schur"]
    assert len(failures) == 4
    for f in failures:
        w = Weights.parse(*f["detail"]["weights"].strip("()").split(","))
        assert f["detail"]["recursion"] == str(hanoi_bundle(f["level"], w).T)


def test_requests_in_one_process_match_fresh_interpreters(capsys):
    # the parser is built once per process; a usage error must leave
    # nothing behind that changes the requests after it
    requests = (
        ["gf", "--family", "hanoi", "--level"],
        ["gf", "--family", "sierpinski-dir", "--level", "2", "--weights", "1/3", "2/7", "5",
         "--method", "all"],
        ["stats", "--model", "sierpinski-schreier", "--level", "2", "--label", "b"],
        # the cofactor's graph is shared by every request after the first
        ["gf", "--family", "sierpinski-schreier", "--level", "5", "--method", "all"],
        ["gf", "--family", "sierpinski-schreier", "--level", "5", "--weights", "13/61", "44/17",
         "7/90", "--method", "all"],
        ["verify", "--family", "sierpinski-schreier", "--levels", "5..5", "--trials", "2",
         "--seed", "9"],
    )
    env = src_env()
    codes = []
    for argv in requests:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fractal_forest.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 0, 0]
