"""Command-line front door.

Subcommands: ``generate`` (build a graph, emit census/DOT), ``gf``
(generating-function values by one or all methods), ``verify`` (the full
cross-method consistency matrix; nonzero exit on any mismatch) and
``stats`` (label statistics of a random spanning tree).

Exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 capability
cap exceeded, 4 decimation singular with no fallback.  Weights are only
accepted as exact rationals ("3/7"); every exact value is printed as a
fraction string.  FRACTAL_FOREST_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache

from . import stats as stat_mod
from .algebra import DEFAULT_SEED, Weights, exact_text
from .errors import CapabilityError, DecimationSingularError
from .families import (
    FAMILIES, ONES, ROTATIONAL, ROUTES, Level, lookup, run_checks, symbolic_routes,
)
from .graphs import export_dot, graph_census
from .oracle import EDGE_CAP
from .sierpinski import EVALUATED_LEVEL_CAP, SYMBOLS, check_level

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_SINGULAR = 4


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    env = os.environ.get("FRACTAL_FOREST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"FRACTAL_FOREST_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _at_least_1(n: int, what: str) -> int:
    if n < 1:
        raise UsageError(f"{what} must be >= 1")
    return n


def _parse_levels(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad level range {text!r}") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad level range {text!r}")
    return range(lo, hi + 1)


# -- generate -----------------------------------------------------------------


def run_generate(args) -> tuple[int, str]:
    family = lookup(args.family)
    n = _at_least_1(args.level, "level")
    if n > EVALUATED_LEVEL_CAP:  # a level-n graph has up to 3^n vertices
        raise CapabilityError(f"graphs are capped at level {EVALUATED_LEVEL_CAP}")
    g = family.graph(n, args.loops)
    if args.format == "dot":
        return EXIT_OK, export_dot(g)
    return EXIT_OK, _emit(graph_census(g), args.format)


# -- gf -----------------------------------------------------------------------


def _gf_methods(family, n: int, w: Weights, requested: str):
    """The requested routes that apply, and why each route that
    ``--method all`` leaves out is skipped; no graph is built to decide."""
    if requested == "all":
        skipped = {name: why for name in family.routes if (why := family.skip_reason(name, n, w))}
        return [name for name in family.routes if name not in skipped], skipped
    if requested not in family.routes:
        raise UsageError(f"the {requested} method does not apply to the {family.name} family")
    why = family.skip_reason(requested, n, w)
    if requested == "closed" and why:
        raise UsageError(f"{family.name} closed form counts trees at weights 1 1 1 only")
    if requested == "cofactor" and why:
        raise CapabilityError(why)
    if requested == "oracle" and family.edges(n) > EDGE_CAP:
        raise CapabilityError(f"oracle capped at {EDGE_CAP} edges")
    return [requested], {}


def run_gf(args) -> tuple[int, str]:
    family = lookup(args.family)
    n = _at_least_1(args.level, "level")
    seed = args.seed if args.seed is not None else _default_seed()
    report = {
        "family": family.name,
        "level": n,
        "mode": args.mode,
        "method": args.method,
        "seed": seed,
    }
    if args.mode == "symbolic":
        if args.method != "all" and args.method not in symbolic_routes(family):
            raise UsageError(f"the {args.method} method has no symbolic mode for {family.name}")
        bundle = dict(zip(family.components, Level(family, n).values(SYMBOLS)))
        report["components"] = {k: v.text() for k, v in bundle.items()}
        report["value"] = report["components"]["T"]
        if family.closed is not None:
            closed = family.closed(n, SYMBOLS, family.components)
            report["closed"] = {k: getattr(closed, k).text() for k in bundle}
            report["agreement"] = all(getattr(closed, k).expand() == v for k, v in bundle.items())
        code = EXIT_OK if report.get("agreement", True) else EXIT_MISMATCH
        return code, _emit(report, args.format)

    w = Weights.parse(*args.weights)
    report["weights"] = [str(x) for x in w]
    methods, skipped = _gf_methods(family, n, w, args.method)
    # before any route runs, because the decimation and the rotational
    # closed form have no level cap of their own
    check_level(n, w)
    # every route runs at integer weights; a value is reduced back to w
    # only to be printed, once per distinct value
    iw, scale = w.clear_denominators()
    level = Level(family, n)
    values = {}
    fallbacks = []
    for name in methods:
        if name == "schur" and (why := family.skip_reason(name, n, w)):
            fallbacks.append(f"{why}; used cofactor")
        try:
            values[name] = ROUTES[name](level, iw)
        except DecimationSingularError as exc:
            # under --method all a fallback would report the cofactor
            # route a second time and count it twice towards agreement
            if args.method == "all":
                skipped[name] = f"decimation singular: {exc}"
            elif family.skip_reason("cofactor", n, w):
                raise
            else:
                fallbacks.append(f"{name} failed ({exc}); used cofactor")
                values[name] = ROUTES["cofactor"](level, iw)
    # one printer call for every value shown: the recursion's components,
    # each route's value that differs from the recursion's T, and each D,
    # homogeneous of degree 6 in the decimation state; a large component is
    # printed from the product of powers its run keeps
    tree = values.get("recursion")
    parts = level.values(iw) if "recursion" in values else ()
    alone = [*dict.fromkeys(v for v in values.values() if v != tree)]
    orbit = level.orbit if "schur" in values else []
    texts = exact_text(
        [*parts, *alone, *orbit], scale,
        [*(family.degree(n, k) for k in family.components[:len(parts)]),
         *[family.degree(n, "T")] * len(alone), *[6] * len(orbit)],
        (lambda: level.products(iw)) if parts else None)
    shown = dict(zip(alone, texts[len(parts):]))
    if parts:
        report["components"] = dict(zip(family.components, texts))
        shown[tree] = texts[0]
    if "schur" in values:
        report["D_orbit"] = texts[len(parts) + len(alone):]
    report["methods"] = {k: shown[v] for k, v in values.items()}
    report["skipped"] = skipped
    report["fallbacks"] = fallbacks
    report["agreement"] = len(set(values.values())) == 1
    report["value"] = next(iter(report["methods"].values()), None)
    code = EXIT_OK if report["agreement"] else EXIT_MISMATCH
    return code, _emit(report, args.format)


# -- verify ---------------------------------------------------------------------


def run_verify(args) -> tuple[int, str]:
    families = list(FAMILIES.values()) if args.family == "all" else [lookup(args.family)]
    levels = _parse_levels(args.levels)
    _at_least_1(args.trials, "trials")
    check_level(levels[-1], ONES)  # before any check runs
    seed = args.seed if args.seed is not None else _default_seed()
    rng = random.Random(seed)
    checks = []
    for family in families:
        for name, level, ok, detail in run_checks(family, levels, args.trials, rng):
            entry = {"check": name, "level": level, "status": "ok" if ok else "mismatch"}
            if detail is not None:
                entry["detail"] = detail
            checks.append(entry)
    mismatches = [c for c in checks if c["status"] != "ok"]
    report = {
        "families": [f.name for f in families],
        "levels": [levels[0], levels[-1]],
        "trials": args.trials,
        "seed": seed,
        "checks_run": len(checks),
        "failures": mismatches,
        "status": "ok" if not mismatches else "mismatch",
    }
    code = EXIT_OK if not mismatches else EXIT_MISMATCH
    return code, _emit(report, args.format)


# -- stats ----------------------------------------------------------------------


def run_stats(args) -> tuple[int, str]:
    family = lookup(args.model)
    n = _at_least_1(args.level, "level")
    if args.normality and family is not ROTATIONAL:
        raise UsageError(f"the normality gap does not apply to the {family.name} family")
    mean, variance = stat_mod.label_moments(family.name, n, args.label)
    report = {
        "model": family.name,
        "n": n,
        "label": args.label,
        "mean": str(mean),
        "variance": str(variance),
    }
    if family is ROTATIONAL:
        closed = stat_mod.label_stat_closed(n, args.label)
        report["matches_closed_form"] = (
            closed.mean == mean and closed.variance == variance
        )
    if args.normality:
        report["normality_gap"] = f"{stat_mod.normality_gap(n, label=args.label):.6g}"
    return EXIT_OK, _emit(report, args.format)


# -- output helpers ---------------------------------------------------------------


def _to_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _flatten(data, prefix=""):
    rows = []
    if isinstance(data, dict):
        for k in sorted(data):
            rows.extend(_flatten(data[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], data))
    return rows


def _to_csv(data) -> str:
    lines = ["key,value"]
    for key, value in _flatten(data):
        text = str(value).replace('"', '""')
        lines.append(f'{key},"{text}"')
    return "\n".join(lines) + "\n"


def _emit(report, fmt) -> str:
    if fmt == "csv":
        return _to_csv(report)
    if fmt == "text":
        return "\n".join(f"{k}: {v}" for k, v in _flatten(report)) + "\n"
    return _to_json(report)


# -- argument parsing --------------------------------------------------------------


@cache  # the parser is constant; building it costs about a millisecond
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fractal-forest",
        description="exact spanning-tree generating functions on self-similar graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a labelled graph")
    g.add_argument("--family", required=True)
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--loops", action="store_true", help="keep loops (hanoi only)")
    g.add_argument("--format", choices=("json", "dot", "text", "csv"), default="json")

    f = sub.add_parser("gf", help="generating-function values")
    f.add_argument("--family", required=True)
    f.add_argument("--level", type=int, required=True)
    f.add_argument("--weights", nargs=3, default=("1", "1", "1"), metavar=("A", "B", "C"))
    f.add_argument("--mode", choices=("symbolic", "evaluated"), default="evaluated")
    f.add_argument("--method", choices=(*ROUTES, "all"), default="recursion")
    f.add_argument("--seed", type=int, help="recorded in the report; no gf route draws from it")
    f.add_argument("--format", choices=("json", "text", "csv"), default="json")

    v = sub.add_parser("verify", help="cross-method consistency matrix")
    v.add_argument("--family", default="all")
    v.add_argument("--levels", default="1..3")
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int)
    v.add_argument("--format", choices=("json", "text", "csv"), default="json")

    s = sub.add_parser("stats", help="random-spanning-tree label statistics")
    s.add_argument("--model", default="sierpinski-rot")
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--label", choices=("a", "b", "c"), required=True)
    s.add_argument("--normality", action="store_true")
    s.add_argument("--format", choices=("json", "text", "csv"), default="json")
    return p


_RUNNERS = {
    "generate": run_generate,
    "gf": run_gf,
    "verify": run_verify,
    "stats": run_stats,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact values below the level caps run to 10^6 digits: lift Python's
    # limit on int-to-string conversion for this call, and give the caller
    # back its own setting
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code, output = _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as exc:
        print(f"capability: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except DecimationSingularError as exc:
        print(f"decimation singular: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
