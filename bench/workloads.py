"""Request lists and result pins for the benchmark workloads.

A workload repeats a cycle: a fixed list of requests, sent in an order
that the workload seed shuffles anew for every cycle.  A ``gf-desk``
cycle sends every family at levels 1-8 with every weight triple of a
small pool (all ones, small integers, rationals up to 97/97).  The
inputs of a cycle are fixed because the cost of one request varies up
to fourfold with its weights (``verify --seed`` draws the weights of a
verify request), and a run holds only a few cycles: drawing them per
run would make the work measured differ from seed to seed.

Pins live in ``pins.json`` next to this file; ``make_pins.py`` writes
them from library calls with the integer-string digit limit lifted.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator, NamedTuple

PINS_PATH = Path(__file__).with_name("pins.json")

WORKLOADS = ("gf-desk", "verify-deep", "symbolic-stats")
FAMILIES = ("hanoi", "sierpinski-rot", "sierpinski-dir", "sierpinski-schreier")
LIBRARY_NAMES = {
    "hanoi": "hanoi",
    "sierpinski-rot": "sierpinski-rotational",
    "sierpinski-dir": "sierpinski-directional",
    "sierpinski-schreier": "sierpinski-schreier",
}
LABELS = ("a", "b", "c")
WEIGHT_CLASSES = ("ones", "integers", "rationals")

GF_DESK_LEVELS = range(1, 9)
# copies of each verify request per cycle.  Level 8 runs more often than
# level 9 so that a run of about 25 s holds the hundred requests that ten
# samples above the 90th percentile need.  All copies use one --seed
# (which draws the weights), so they take the same time: a percentile
# then falls inside a group of identical requests, not between two
# requests of different cost, where it would jump from run to run.
VERIFY_SEED = 1
VERIFY_DEEP_CELLS = {
    ("sierpinski-dir", 8): 3, ("sierpinski-schreier", 8): 3,
    ("sierpinski-rot", 8): 3, ("hanoi", 8): 4,
    ("sierpinski-dir", 9): 2, ("sierpinski-schreier", 9): 2,
    ("sierpinski-rot", 9): 3, ("hanoi", 9): 1,
}
SYMBOLIC_LEVELS = range(1, 4)
SYMBOLIC_SEED = 1729  # sampling seed of the symbolic closed-form check
ROTATIONAL_STAT_LEVELS = range(1, 21)


class Request(NamedTuple):
    kind: str  # gf | gf-symbolic | verify | stats
    argv: tuple
    key: str  # pin key; empty for verify, whose pin is its status


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def gf_argv(family: str, level: int, weights) -> tuple:
    return (
        "gf", "--family", family, "--level", str(level),
        "--weights", *weights, "--method", "all",
    )


def gf_key(family: str, level: int, weights) -> str:
    return " ".join((family, str(level), *weights))


def symbolic_key(family: str, level: int) -> str:
    return f"{family} {level}"


def stats_key(model: str, level: int, label: str) -> str:
    return f"{model} {level} {label}"


def gf_desk_universe(pools: dict):
    """Every (family, level, weight class, triple) a gf-desk request can use."""
    for family in FAMILIES:
        for level in GF_DESK_LEVELS:
            for cls in WEIGHT_CLASSES:
                for triple in pools[cls]:
                    yield family, level, cls, tuple(triple)


def stats_cells():
    """(model, level, label, normality) of every stats request.

    Rotational levels ask for the normality gap on odd levels only: the
    cheap rotational requests then make up little enough of a cycle that
    the 90th percentile falls inside the 12-35 ms cluster of level-3
    stats and small symbolic requests, not in the gap below it.
    """
    cells = []
    for model in FAMILIES:
        if model == "sierpinski-rot":
            for level in ROTATIONAL_STAT_LEVELS:
                for label in LABELS:
                    cells.append((model, level, label, level % 2 == 1))
        else:
            for level in SYMBOLIC_LEVELS:
                for label in LABELS:
                    cells.append((model, level, label, False))
    return cells


def digit_limit_keys(pins: dict) -> set:
    """Pin keys of the gf-desk requests that exit 2 under the digit limit."""
    return {
        gf_key(argv[2], int(argv[4]), argv[6:9]) for argv in pins["digit_limit_exit2"]
    }


def verify_argv(family: str, level: int) -> tuple:
    return (
        "verify", "--family", family, "--levels", f"{level}..{level}",
        "--trials", "1", "--seed", str(VERIFY_SEED),
    )


def cycle(workload: str, pins: dict) -> list:
    """The requests of one cycle, in a fixed order."""
    if workload == "gf-desk":
        failing = digit_limit_keys(pins)
        keys = (
            (family, level, triple)
            for family, level, _cls, triple in gf_desk_universe(pins["weights"])
        )
        return [
            Request("gf", gf_argv(*k), gf_key(*k)) for k in keys if gf_key(*k) not in failing
        ]
    if workload == "verify-deep":
        return [
            Request("verify", verify_argv(family, level), "")
            for (family, level), copies in VERIFY_DEEP_CELLS.items()
            for _ in range(copies)
        ]
    if workload == "symbolic-stats":
        reqs = [
            Request(
                "gf-symbolic",
                ("gf", "--family", f, "--level", str(n), "--mode", "symbolic",
                 "--seed", str(SYMBOLIC_SEED)),
                symbolic_key(f, n),
            )
            for f in FAMILIES
            for n in SYMBOLIC_LEVELS
        ]
        for model, level, label, normality in stats_cells():
            argv = ("stats", "--model", model, "--level", str(level), "--label", label)
            reqs.append(Request("stats", argv + ("--normality",) * normality,
                                stats_key(model, level, label)))
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int, pins: dict) -> Iterator[Request]:
    """The endless request list of one workload; the same seed gives the same list."""
    reqs = cycle(workload, pins)
    rng = random.Random(f"{workload}:{seed}")
    while True:
        rng.shuffle(reqs)
        yield from reqs


def check(req: Request, code: int, out: str, pins: dict):
    """(failure reason or None, parsed report or None) for one request."""
    if code != 0:
        return f"exit {code}", None
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON", None
    if req.kind == "verify":
        return (None if report.get("status") == "ok" else "status is not ok"), report
    if req.kind == "stats":
        if [report.get("mean"), report.get("variance")] != pins["stats"][req.key]:
            return "mean or variance differs from its pin", report
        if report.get("matches_closed_form") is False:
            return "rotational closed form disagrees", report
        if "--normality" in req.argv and "normality_gap" not in report:
            return "normality gap missing", report
        return None, report
    table = pins["gf"] if req.kind == "gf" else pins["gf_symbolic"]
    if digest(str(report.get("value"))) != table[req.key]:
        return "value differs from its pin", report
    # symbolic hanoi has no closed form to agree with
    if not req.key.startswith("hanoi ") or req.kind == "gf":
        if report.get("agreement") is not True:
            return "routes disagree", report
    return None, report
