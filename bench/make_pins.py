"""Write pins.json: the expected result of every benchmark request.

Run from the repository root:  python3 bench/make_pins.py

Phase 1 runs every gf-desk request through the CLI with Python's default
4300-digit integer-string limit in force and lists, by argv, those that
exit 2 on that limit.  Phase 2 lifts the limit and computes every pin
from library calls, so the failing requests are pinned too and are
checked once they succeed.  The CLI's own values are compared with the
library pins on the way.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from fractal_forest import cli, hanoi, sierpinski, stats  # noqa: E402
from fractal_forest.algebra import Weights  # noqa: E402

POOL_SEED = 1007_0021
INTEGER_TRIPLES = 2
RANDOM_RATIONAL_TRIPLES = 1
NAMED_RATIONALS = (("1/3", "2/7", "5"), ("13/61", "44/17", "7/90"))
BUNDLES = {
    "hanoi": hanoi.hanoi_bundle,
    "sierpinski-rot": sierpinski.rot_bundle,
    "sierpinski-dir": sierpinski.dir_bundle,
    "sierpinski-schreier": sierpinski.schreier_bundle,
}


def weight_pools() -> dict:
    rng = random.Random(POOL_SEED)
    integers = [[str(rng.randint(1, 9)) for _ in range(3)] for _ in range(INTEGER_TRIPLES)]
    rationals = [list(t) for t in NAMED_RATIONALS] + [
        [f"{rng.randint(1, 97)}/{rng.randint(1, 97)}" for _ in range(3)]
        for _ in range(RANDOM_RATIONAL_TRIPLES)
    ]
    return {"ones": [["1", "1", "1"]], "integers": integers, "rationals": rationals}


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    pools = weight_pools()
    universe = list(wl.gf_desk_universe(pools))

    cli_values = {}
    digit_limit = []
    for family, level, _cls, triple in universe:
        argv = wl.gf_argv(family, level, triple)
        code, out, err = run_cli(argv)
        if code == 2 and "Exceeds the limit" in err:
            digit_limit.append(list(argv))
        elif code == 0:
            cli_values[wl.gf_key(family, level, triple)] = json.loads(out)["value"]
        else:
            print(f"unexpected exit {code} for {' '.join(argv)}: {err}", file=sys.stderr)
            return 1

    sys.set_int_max_str_digits(0)
    gf = {}
    for family, level, _cls, triple in universe:
        key = wl.gf_key(family, level, triple)
        value = str(BUNDLES[family](level, Weights.parse(*triple)).T)
        if key in cli_values and cli_values[key] != value:
            print(f"CLI value differs from the library for {key}", file=sys.stderr)
            return 1
        gf[key] = wl.digest(value)

    gf_symbolic = {
        wl.symbolic_key(f, n): wl.digest(BUNDLES[f](n).T.text())
        for f in wl.FAMILIES
        for n in wl.SYMBOLIC_LEVELS
    }
    stats_pins = {}
    for model, level, label, _normality in wl.stats_cells():
        name = wl.LIBRARY_NAMES[model]
        stats_pins[wl.stats_key(model, level, label)] = [
            str(stats.label_mean_gf(name, level, label)),
            str(stats.label_variance_gf(name, level, label)),
        ]

    pins = {
        "weights": pools,
        "digit_limit_exit2": digit_limit,
        "gf": gf,
        "gf_symbolic": gf_symbolic,
        "stats": stats_pins,
    }
    wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(
        f"pinned {len(gf)} gf, {len(gf_symbolic)} symbolic gf and {len(stats_pins)}"
        f" stats results; {len(digit_limit)} gf requests exit 2 on the digit limit"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
