"""Seeded mutants: each one changes one exact snippet of the program, and
the tests named with it must fail on the changed copy.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

For each mutant, ``src/`` and ``tests/`` are copied to a temporary
directory, the snippet is replaced there, and the named tests run on the
copy with ``pytest -x -q``.  A mutant is killed when pytest reports a
failed test (exit code 1).  The run fails if a mutant's tests pass, if
pytest ends any other way (a test id that names no test, say), or if a
snippet is not found exactly once in its file.  The checkout itself is
never written to.  The file is not named ``test_*.py``, so the tier-1
suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

ALGEBRA = "src/fractal_forest/algebra.py"
KERNEL = "src/fractal_forest/kirchhoff.py"
HANOI = "src/fractal_forest/hanoi.py"
RUNNER = "src/fractal_forest/sierpinski.py"
FAMILIES = "src/fractal_forest/families.py"
STATS = "src/fractal_forest/stats.py"
GRAPHS = "src/fractal_forest/graphs.py"
PIVOTS = "tests/test_kirchhoff.py::test_sparse_det_pivots_as_the_scan_of_every_row"
START_UP = ("tests/test_cli.py::"
            "test_cli_starts_without_dataclasses_and_builds_the_map_tables_on_first_use")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # found exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("pivot heap tie rank reversed", KERNEL,
           "heap = [(len(layouts[i]), r, i) for i, r in rank.items()]",
           "heap = [(len(layouts[i]), -r, i) for i, r in rank.items()]",
           (PIVOTS,)),
    Mutant("stale heap entry skipped only once pivoted", KERNEL,
           "if p not in rank or len(row) != length:",
           "if p not in rank:",
           (PIVOTS,)),
    Mutant("row not pushed again when its length changes", KERNEL,
           "heappush(heap, (len(new), rank[i], i))",
           "pass",
           (PIVOTS,)),
    Mutant("pivot column prefers no diagonal on a tie", KERNEL,
           "if c is None or count < fewest or (count == fewest and j == keys[p]):",
           "if c is None or count < fewest:",
           (PIVOTS,)),
    Mutant("pivot row's denominator left out", KERNEL,
           "den *= dens[p]",
           "pass",
           ("tests/test_kirchhoff.py::test_sparse_det_rows_with_different_denominators",)),
    Mutant("cofactor divided by scale^|V|", KERNEL,
           "det / scale ** (len(g.vertices) - 1)",
           "det / scale ** len(g.vertices)",
           ("tests/test_kirchhoff.py::"
            "test_cofactor_at_fraction_weights_equals_the_kernel_on_the_fraction_minor",)),
    Mutant("decimation delta to the power -3 e", KERNEL,
           "(delta, -6 * e)",
           "(delta, -3 * e)",
           ("tests/test_hanoi.py::test_decimation_products_agree_with_the_values",)),
    Mutant("hanoi step's gasket 3-forests doubled", HANOI,
           "+ abc * gasket_Q",
           "+ 2 * abc * gasket_Q",
           ("tests/test_hanoi.py::test_step_equals_the_paper_equations",)),
    Mutant("network column order reversed", KERNEL,
           "{j: tuple(row[j]) for j in sorted(row)}",
           "{j: tuple(row[j]) for j in sorted(row, reverse=True)}",
           ("tests/test_kirchhoff.py::test_sparse_builders_hand_the_kernel_the_dense_rows",)),
    Mutant("counts step coefficient 36 to 35", HANOI,
           "36 * SS",
           "35 * SS",
           ("tests/test_hanoi.py::test_counts_step_equals_the_paper_equations",
            "tests/test_hanoi.py::test_counts_recursive_equals_the_full_size_loop")),
    Mutant("primitive run keeps no content past level 1", RUNNER,
           "contents.append(g)",
           "contents.append(1)",
           ("tests/test_hanoi.py::test_counts_recursive_equals_the_full_size_loop",
            "tests/test_sierpinski.py::test_primitive_run_multiplied_out_is_the_bundle")),
    Mutant("primitive run checks no level cap", RUNNER,
           "check_level(n, initial.weights)",
           "pass",
           ("tests/test_sierpinski.py::test_variables_as_weights_keep_the_symbolic_cap",
            "tests/test_hanoi.py::test_counts_cap_is_checked_before_any_step")),
    Mutant("schur route decimates from level 2", FAMILIES,
           'if route == "schur" and n < 3:',
           'if route == "schur" and n < 2:',
           ("tests/test_cli.py::test_gf_schur_below_level_3_records_cofactor",)),
    Mutant("mpmath imported with the package", STATS,
           "from fractions import Fraction\n\nfrom .algebra",
           "from fractions import Fraction\n\nimport mpmath\n\nfrom .algebra",
           ("tests/test_cli.py::test_exact_commands_never_load_mpmath",)),
    Mutant("dataclasses imported with the graphs", GRAPHS,
           "from itertools import product\n",
           "import dataclasses\nfrom itertools import product\n",
           (START_UP,)),
    Mutant("decimation tables built at import", KERNEL,
           "def _cleared_denominator(s: SchurState):",
           "_map_tables()\n\n\ndef _cleared_denominator(s: SchurState):",
           (START_UP,)),
    Mutant("kernel drops the remainder", KERNEL,
           'return product if rest == 0 else f"{product} + ({_source(rest)})"',
           "return product",
           ("tests/test_kirchhoff.py::test_horner_schemes_equal_the_terms",)),
    Mutant("tree polynomial kept per family", FAMILIES,
           "key = (self.family.name, self.n)\n        if key not in _TREE_POLYNOMIALS:",
           "key = self.family.name\n        if key not in _TREE_POLYNOMIALS:",
           ("tests/test_cli.py::test_oracle_enumerates_one_tree_polynomial_per_level",)),
    Mutant("zero pivot not planned again", KERNEL,
           "if steps is plan.steps:\n                    break",
           "if steps is plan.steps:\n                    pass",
           ("tests/test_kirchhoff.py::test_sparse_det_plans_again_at_a_zero_pivot",)),
    Mutant("row dropped at a pivot 0 not pushed again", KERNEL,
           "heappush(heap, (len(layouts[p]), rank[p], p))",
           "pass",
           ("tests/test_kirchhoff.py::test_planned_cofactor_equals_the_kernel_on_the_same_rows",)),
    Mutant("template planned again on every det", KERNEL,
           "return _replay(self.plan, rows, [1] * len(rows))",
           "return _replay(_plan(dict(zip(self.plan.keys, self.plan.layouts)), self.plan.keep),"
           " rows, [1] * len(rows))",
           ("tests/test_cli.py::test_each_decimation_template_is_planned_once",)),
    Mutant("template kept under a key without the family", FAMILIES,
           "key = (self.family.name, self.n)\n        if key not in _COFACTOR_TEMPLATES:",
           "key = self.n\n        if key not in _COFACTOR_TEMPLATES:",
           ("tests/test_cli.py::test_cofactor_plans_are_kept_per_family_and_level",)),
    Mutant("power moved onto the divisor once", ALGEBRA,
           "kept[y] = [a + (times + 1) * b for a, b in zip(kept[y], vec)]",
           "kept[y] = [a + b for a, b in zip(kept[y], vec)]",
           ("tests/test_algebra.py::test_products_equal_perfect_powers[default]",
            "tests/test_algebra.py::test_division_and_split_keep_every_row_product")),
    Mutant("value left over after division dropped", ALGEBRA,
           "        if x > 1:\n            kept[x] = vec\n",
           "",
           ("tests/test_algebra.py::test_products_equal_swapped_and_shifted_exponents[default]",
            "tests/test_algebra.py::test_division_and_split_keep_every_row_product")),
    Mutant("valuation at a factor of the scale left uncapped", ALGEBRA,
           "cap = min(num[t], e * degrees[k])",
           "cap = num[t]",
           ("tests/test_algebra.py::test_exact_text_is_the_reduced_fraction_string[decimal_only]",)),
    Mutant("what is left of x not joined to the pieces of a split", ALGEBRA,
           "        x = _join(pieces, x, vec)\n",
           "",
           ("tests/test_algebra.py::"
            "test_split_where_what_is_left_of_a_value_shares_a_factor_with_the_gcd",)),
    Mutant("each power found on the remainder counted once", ALGEBRA,
           "r, k, divisor = q, k + (1 << j), divisor * powers[j]",
           "r, k, divisor = q, k + 1, divisor * powers[j]",
           ("tests/test_algebra.py::test_divide_out_finds_the_multiplicity",)),
    Mutant("weights indexed by label", ALGEBRA,
           "    def all_positive(self) -> bool:\n",
           "    def __getitem__(self, label):\n"
           "        if label not in VARS:\n"
           "            raise ValueError(f\"unknown label {label!r}\")\n"
           "        return getattr(self, label)\n\n"
           "    def all_positive(self) -> bool:\n",
           ("tests/test_algebra.py::test_weights_read_by_position_like_any_tuple",)),
)


def mutated(mutant: Mutant) -> str:
    """The mutant's file with its snippet replaced; an error unless the
    snippet is found exactly once."""
    text = (ROOT / mutant.path).read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} is found {found} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's tests, run on a mutated copy."""
    text = mutated(mutant)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        (copy / mutant.path).write_text(text)
        path = [str(copy / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--rootdir", str(copy), *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for mutant in chosen:
        mutated(mutant)  # every snippet is checked before any test runs
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        code = run(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        bad += code != 1
        print(f"{verdict:>8}  {mutant.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
