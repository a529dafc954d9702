import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractal_forest import cli
from fractal_forest import families
from fractal_forest import kirchhoff
from fractal_forest import sierpinski
from fractal_forest import stats
from fractal_forest.algebra import FactoredPoly, Weights
from fractal_forest.errors import DecimationSingularError
from fractal_forest.hanoi import hanoi_bundle


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

    def doubled_tree(n):
        b = dir_closed(n)
        return dataclasses.replace(b, T=FactoredPoly({**b.T.primes, 2: b.T.primes[2] + 1},
                                                     b.T.factors))

    monkeypatch.setattr(sierpinski, "dir_closed", doubled_tree)
    code, data = run_json(
        capsys, "gf", "--family", "sierpinski-dir", "--level", "2", "--mode", "symbolic"
    )
    assert code == 1
    assert data["agreement"] is False


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
    def refuse(n, w):
        raise AssertionError("the decimation ran")

    monkeypatch.setattr(kirchhoff, "schur_pipeline", refuse)
    argv = ["verify", "--family", "hanoi", "--trials", "2", "--seed", "9", "--levels"]
    assert cli.main(argv + ["1..2"]) == 0
    with pytest.raises(AssertionError, match="the decimation ran"):
        cli.main(argv + ["3..3"])


def test_every_family_route_is_in_the_route_table():
    for family in families.FAMILIES.values():
        assert set(family.routes) <= set(families.ROUTES), family.name


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


def test_verify_with_corrupted_map_term_fails(capsys, monkeypatch):
    corrupted = dict(kirchhoff.P_TERMS)
    first_coeff, first_exps = corrupted[4][0]
    corrupted[4] = ((first_coeff + 1, first_exps),) + corrupted[4][1:]
    monkeypatch.setattr(kirchhoff, "P_TERMS", corrupted)
    code, data = run_json(
        capsys, "verify", "--family", "hanoi", "--levels", "3..3", "--trials", "2",
        "--seed", "9",
    )
    assert code == 1
    assert data["status"] == "mismatch"
    assert data["failures"]


def test_verify_reports_divergent_coordinates(capsys, monkeypatch):
    corrupted = dict(kirchhoff.P_TERMS)
    first_coeff, first_exps = corrupted[5][0]
    corrupted[5] = ((first_coeff + 2, first_exps),) + corrupted[5][1:]
    monkeypatch.setattr(kirchhoff, "P_TERMS", corrupted)
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
    corrupted = dict(kirchhoff.P_TERMS)
    first_coeff, first_exps = corrupted[4][0]
    corrupted[4] = ((first_coeff + 1, first_exps),) + corrupted[4][1:]
    monkeypatch.setattr(kirchhoff, "P_TERMS", corrupted)
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
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
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
    assert codes == [2, 0, 0]
