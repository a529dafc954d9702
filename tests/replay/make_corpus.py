"""Write or replay corpus.json: the exact output of a fixed set of CLI requests.

Run from the repository root:

    python3 tests/replay/make_corpus.py          # (re)write corpus.json
    python3 tests/replay/make_corpus.py --check  # replay it; exit 1 on any difference

Each request runs ``cli.main`` in process, with FRACTAL_FOREST_SEED
unset, and the corpus keeps its argv, exit code, the sha256 of its
stdout and its stderr verbatim.  The requests cover every family: the
symbolic ``gf`` routes (level 3 in every format), ``gf --method all`` at
six weight triples (degenerate and signed ones included), at levels
6-10 at ``13/61 44/17 7/90`` and at levels 11-12 at ``1 2 3`` and
``13/61 44/17 7/90``, each of a family's gf routes alone at
levels 1-5 and the six weight triples (the explicit oracle on the
27-edge graphs at ``1 1 1`` only), the ``schur`` method refused on the
gaskets, ``stats`` on both sides of each statistics cap, the rotational
normality gap at every level 1-20 for each label, ``verify`` (hanoi also
at levels 7-9, with one and three draws), ``generate`` in every format,
and the usage and capability errors the CLI raises itself.  No
``verify`` or ``generate`` request goes past level 9, except the cap
refusals.

Errors that argparse reports (a missing or unknown option, a bad choice)
are left out: their usage text differs between Python versions.  So is
the error for a weight ``Fraction`` cannot parse, whose text is the
standard library's.

A change that alters output on purpose rewrites the corpus and names
every request whose entry moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from fractal_forest import cli, families  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "corpus.json"

FAMILIES = ("hanoi", "sierpinski-rot", "sierpinski-dir", "sierpinski-schreier")
TRIPLES = (
    ("1", "1", "1"), ("1", "2", "3"), ("13/61", "44/17", "7/90"),
    ("0", "1", "1"), ("1", "-1", "1"), ("-2", "3", "5"),
)
FORMATS = ("json", "text", "csv")
# the explicit oracle on the 27-edge graphs takes 4.9-7.0 s a request, so
# it runs at weights 1 1 1 only
SLOW_ORACLES = (("sierpinski-rot", "2"), ("sierpinski-dir", "3"), ("sierpinski-schreier", "3"))


def requests() -> list[list[str]]:
    """Every request of the corpus, in its order."""
    out = []
    for family in FAMILIES:
        for level in range(1, 5):  # the symbolic cap is 3
            for method in ("all", "recursion", "closed", "cofactor"):
                out.append(["gf", "--family", family, "--level", str(level),
                            "--mode", "symbolic", "--method", method])
    for family in FAMILIES:
        for level in (1, 2, 3, 4, 5, 8, 13):  # the evaluated cap is 12
            for triple in TRIPLES:
                out.append(["gf", "--family", family, "--level", str(level),
                            "--weights", *triple, "--method", "all"])
    for family in FAMILIES:
        for level in (6, 7, 9, 10):
            out.append(["gf", "--family", family, "--level", str(level),
                        "--weights", *TRIPLES[2], "--method", "all"])
    for family in FAMILIES:
        for level in ("11", "12"):  # about 25 s together; the tier-1 replay leaves them out
            for triple in (TRIPLES[1], TRIPLES[2]):
                out.append(["gf", "--family", family, "--level", level,
                            "--weights", *triple, "--method", "all"])
    for family in FAMILIES:
        for method in ("recursion", "closed", "cofactor", "schur", "oracle"):
            if method == "oracle":
                levels = ("1",)  # the rotational level-2 oracle takes 5 s
            elif (family, method) == ("hanoi", "schur"):
                levels = ("1", "2")  # the decimation runs from level 3
            else:
                levels = ("2",)
            for level in levels:
                for triple in (TRIPLES[0], TRIPLES[2]):
                    out.append(["gf", "--family", family, "--level", level,
                                "--weights", *triple, "--method", method])
    for family in FAMILIES:  # each of the family's routes alone, at levels 1-5
        for method in families.lookup(family).routes:
            for level in map(str, range(1, 6)):
                if method == "oracle" and (family, level) in SLOW_ORACLES:
                    continue
                for triple in TRIPLES:
                    argv = ["gf", "--family", family, "--level", level,
                            "--weights", *triple, "--method", method]
                    if argv not in out:
                        out.append(argv)
    for family, level in SLOW_ORACLES:
        out.append(["gf", "--family", family, "--level", level,
                    "--weights", *TRIPLES[0], "--method", "oracle"])
    for family in FAMILIES:
        levels = (1, 3, 20, 21) if family == "sierpinski-rot" else (1, 3, 12, 13)
        for level in levels:
            for label in "abc":
                out.append(["stats", "--model", family, "--level", str(level), "--label", label])
    for level in range(1, 21):
        for label in "abc":
            out.append(["stats", "--model", "sierpinski-rot", "--level", str(level),
                        "--label", label, "--normality"])
    for family in FAMILIES:
        out.append(["verify", "--family", family, "--levels", "1..6", "--trials", "2",
                    "--seed", "9"])
        out.append(["verify", "--family", family, "--levels", "13..13"])
        for fmt in ("json", "dot", "text", "csv"):
            out.append(["generate", "--family", family, "--level", "2", "--format", fmt])
    for levels in ("7..7", "8..8", "9..9", "3..9"):  # the hanoi levels verify-deep runs
        for trials, seed in (("1", "1"), ("3", "9")):
            out.append(["verify", "--family", "hanoi", "--levels", levels, "--trials", trials,
                        "--seed", seed])
    for fmt in FORMATS[1:]:
        out.append(["gf", "--family", "hanoi", "--level", "2", "--weights", "1/3", "2/7", "5",
                    "--method", "all", "--format", fmt])
        out.append(["gf", "--family", "sierpinski-dir", "--level", "2", "--mode", "symbolic",
                    "--format", fmt])
        for family in FAMILIES:
            out.append(["gf", "--family", family, "--level", "3", "--mode", "symbolic",
                        "--method", "all", "--format", fmt])
        out.append(["stats", "--model", "hanoi", "--level", "2", "--label", "b", "--format", fmt])
        out.append(["verify", "--family", "hanoi", "--levels", "1..2", "--trials", "1",
                    "--seed", "9", "--format", fmt])
    out += [
        ["verify", "--levels", "13..13"],
        ["generate", "--family", "hanoi", "--level", "2", "--loops", "--format", "text"],
        ["generate", "--family", "hanoi", "--level", "13"],
        # usage errors and refusals the CLI raises itself
        ["generate", "--family", "hanoi", "--level", "0"],
        ["generate", "--family", "klein", "--level", "1"],
        ["gf", "--family", "hanoi", "--level", "0"],
        ["gf", "--family", "klein", "--level", "1"],
        ["gf", "--family", "hanoi", "--level", "2", "--weights", "0.5", "1", "1"],
        ["gf", "--family", "hanoi", "--level", "2", "--weights", "1e3", "1", "1"],
        ["gf", "--family", "sierpinski-rot", "--level", "2", "--mode", "symbolic",
         "--method", "schur"],
        ["gf", "--family", "hanoi", "--level", "5", "--method", "cofactor"],
        ["gf", "--family", "hanoi", "--level", "4", "--method", "oracle"],
        ["stats", "--model", "hanoi", "--level", "0", "--label", "a"],
        ["stats", "--model", "klein", "--level", "1", "--label", "a"],
        ["stats", "--model", "hanoi", "--level", "2", "--label", "a", "--normality"],
        ["verify", "--levels", "3..1"],
        ["verify", "--levels", "0..2"],
        ["verify", "--levels", "x"],
        ["verify", "--family", "hanoi", "--levels", "1..1", "--trials", "0"],
        ["verify", "--family", "klein", "--levels", "1..1"],
    ]
    return out


def run(argv) -> dict:
    """One request's entry: its argv, exit code, stdout digest and stderr."""
    out, err = io.StringIO(), io.StringIO()
    seed = os.environ.pop("FRACTAL_FOREST_SEED", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if seed is not None:
            os.environ["FRACTAL_FOREST_SEED"] = seed
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())["requests"]


def differences(entries) -> list[str]:
    """Replay each corpus entry; one line per entry that came out otherwise."""
    lines = []
    for expected in entries:
        got = run(expected["argv"])
        moved = [key for key in ("exit", "stdout_sha256", "stderr") if got[key] != expected[key]]
        if moved:
            lines.append(f"{' '.join(expected['argv'])}: {', '.join(moved)} differ")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="replay the corpus and exit 1 on any difference")
    args = parser.parse_args()
    if args.check:
        entries = load()
        lines = differences(entries)
        if [e["argv"] for e in entries] != requests():
            lines.append("the corpus's request list is not requests(); rewrite it")
        print("\n".join(lines) or f"{len(entries)} requests replayed, all identical")
        return 1 if lines else 0
    entries = [run(argv) for argv in requests()]
    CORPUS.write_text(json.dumps({"requests": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} requests to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
