"""Fast self-check of the benchmark, run from the repository root:

    python3 bench/selfcheck.py

It checks that a seed fixes the request lists, that every request the
workloads can send has a pin, that a few cheap requests per workload run
and match their pins, that two requests known to exit 2 on Python's
4300-digit limit still do (or, once fixed, match their pins), and that
the metric names agree with BENCHMARK.json.  Exit code 1 on any
failure.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
KNOWN_DIGIT_LIMIT = (
    wl.gf_argv("hanoi", 8, ("1/3", "2/7", "5")),
    wl.gf_argv("hanoi", 7, ("13/61", "44/17", "7/90")),
)
CHEAP_PER_WORKLOAD = 3


def level_of(req) -> int:
    flag = "--levels" if req.kind == "verify" else "--level"
    return int(req.argv[req.argv.index(flag) + 1].split("..")[0])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import spans
    from fractal_forest import cli

    pins = wl.load_pins()
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in wl.WORKLOADS:
        n = 2 * len(wl.cycle(w, pins))
        first = list(islice(wl.requests(w, 7, pins), n))
        expect(first == list(islice(wl.requests(w, 7, pins), n)), f"{w}: seed 7 repeats its requests")
        expect(first != list(islice(wl.requests(w, 8, pins), n)), f"{w}: seed 8 differs from seed 7")
        tables = {"gf": pins["gf"], "gf-symbolic": pins["gf_symbolic"], "stats": pins["stats"]}
        unpinned = [r.argv for r in first if r.kind != "verify" and r.key not in tables[r.kind]]
        expect(not unpinned, f"{w}: every request has a pin")
        loop = run.Loop(cli, pins)
        loop.run_list(sorted(first[: len(wl.cycle(w, pins))], key=level_of)[:CHEAP_PER_WORKLOAD])
        expect(loop.attempted == CHEAP_PER_WORKLOAD and not loop.failures,
               f"{w}: {loop.attempted} cheap requests match their pins {loop.failures or ''}")

    for argv in KNOWN_DIGIT_LIMIT:
        req = wl.Request("gf", argv, wl.gf_key(argv[2], int(argv[4]), argv[6:9]))
        expect(list(argv) in pins["digit_limit_exit2"], f"listed as a digit-limit exit: {' '.join(argv)}")
        loop = run.Loop(cli, pins)
        loop.send(req)
        digit_exit = bool(loop.failures) and "Exceeds the limit" in loop.failures[0]["stderr"]
        expect(digit_exit or not loop.failures,
               f"exits 2 on the digit limit or matches its pin: {' '.join(argv)}"
               f" ({'exit 2' if digit_exit else 'fixed' if not loop.failures else loop.failures})")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = {k: u for k, (_v, u) in spans.Tracer().layer_metrics().items()}
    emitted["trace.overhead_ratio"] = "ratio"
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == emitted,
           "per-layer metric names and units match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END,
           "end-to-end metric names and units match BENCHMARK.json")
    expect([w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS),
           "workloads match BENCHMARK.json")
    measured = [BENCH / f for f in ("run.py", "workloads.py", "spans.py")]
    expect(all("set_int_max_str_digits" not in p.read_text() for p in measured),
           "measured code leaves the digit limit alone")
    print("self-check " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
