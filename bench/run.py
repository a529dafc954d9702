"""Benchmark of the fractal-forest CLI, run from the repository root:

    python3 bench/run.py --workload gf-desk --seed 1 --seconds 20 --trace 0

One client drives ``fractal_forest.cli.main(argv)`` in this process as a
closed loop: each request is sent after the previous one returns, with
stdout captured and checked against its pin.  Workloads (see
workloads.py):

- gf-desk: ``gf --method all`` over the four families at levels 1-8 with
  all-ones, small-integer and rational weights.  Time goes to the Bareiss
  cofactor, the oracle, graph builds for the cap checks and decimal
  output; integer and rational weights share the run, so a change that
  helps one and slows the other shows.
- verify-deep: ``verify --levels n..n --trials 1`` for the four families
  at levels 8-9.  Values run to about 10^4 digits; no decimal output and
  no cofactor, so it isolates the Fraction-heavy recursions and the
  Schur decimation.
- symbolic-stats: ``gf --mode symbolic`` at levels 1-3 and ``stats`` for
  the four models.  TriPoly arithmetic and sampling do the work and
  there is almost no big-integer recursion.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same requests three times: untraced to warm
up, traced (see spans.py), and untraced again, and reports per-layer
metrics and the tracing overhead.  The last line of stdout is the
result object; the line before it stamps the environment.  A fuller
report, with the unscaled timings, and the spans of a traced run go to
``.bench_out/``.  Python's default 4300-digit limit on integer-string
conversion stays in force, as it does for a user of the CLI.

Machine speed.  On a shared host the same request can take 40% longer
from one minute to the next, because other tenants load the same cores.
So every 0.05 s the loop times a fixed piece of pure-Python work (the
probe in machine.py, which uses nothing from fractal_forest), and each
reported time is scaled by REFERENCE_PROBE_S over the median probe time
from 0.1 s before the request to 0.1 s after it.  Times are thus seconds
at the machine speed where the probe takes REFERENCE_PROBE_S; a change
to the program moves them, a busy neighbour much less.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import workloads as wl
from machine import REFERENCE_PROBE_S, probe

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 15
# a run sends whole cycles (see workloads.py), so every run holds the same
# mix; it goes on past --seconds until it holds this many requests, so
# that at least ten latency samples lie above the 90th percentile
MIN_REQUESTS = 110
HARD_STOP_S = 120.0
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.1
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# timed import, then probes in the same process (see machine.py)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fractal_forest.cli; "
    "d = time.perf_counter() - t; import sys; sys.path.append({bench!r}); "
    "from machine import probe; print(d, sorted(probe() for _ in range(5))[2])"
)


def measure_setup() -> float:
    """Median time to import fractal_forest.cli in a fresh interpreter.

    Each import is scaled by the median of five probes that the same
    process runs after it.  The first import, which may compile
    bytecode, is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = IMPORT_PROBE.format(bench=str(Path(__file__).resolve().parent))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, probe_s = map(float, done.stdout.split())
        if i:
            times.append(seconds * REFERENCE_PROBE_S / probe_s)
    return statistics.median(times)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
    }


class Loop:
    """The closed loop of one client over a workload's request list."""

    def __init__(self, cli, pins, tracer=None):
        self.cli = cli
        self.pins = pins
        self.tracer = tracer
        self.latencies: list = []
        self.starts: list = []
        self.probes: list = []  # (start, seconds)
        self.attempted = 0
        self.failures: list = []

    def send(self, req) -> None:
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((now, probe()))
        if self.tracer is not None:
            self.tracer.request = self.attempted
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except Exception as exc:  # a crash fails this request, not the run
            crash = f"crash {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.latencies.append(end - start)
        self.starts.append(start)
        self.attempted += 1
        if crash is None:
            reason, report = wl.check(req, code, out.getvalue(), self.pins)
        else:
            reason, report = crash, None
        if reason is not None:
            self.failures.append({"argv": list(req.argv), "reason": reason,
                                  "stderr": err.getvalue()[-500:]})
        if self.tracer is not None:
            self.tracer.note_output(out.getvalue(), report)

    def run_for(self, reqs, seconds: float, min_requests: int, cycle: int) -> None:
        """Send whole cycles of requests until the time and the request count are reached."""
        begin = time.perf_counter()
        for req in reqs:
            self.send(req)
            elapsed = time.perf_counter() - begin
            if elapsed >= HARD_STOP_S or (
                elapsed >= seconds
                and self.attempted >= min_requests
                and self.attempted % cycle == 0
            ):
                break

    def run_list(self, reqs) -> None:
        for req in reqs:
            self.send(req)

    def scaled_latencies(self) -> list:
        """Latencies at the reference machine speed (see the module notes)."""
        times = [t for t, _ in self.probes]
        secs = [s for _, s in self.probes]
        scaled = []
        for lat, start in zip(self.latencies, self.starts):
            lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, start + lat + PROBE_WINDOW_S)
            scaled.append(lat * REFERENCE_PROBE_S / statistics.median(secs[lo:hi] or secs))
        return scaled


def latency_metrics(loop: Loop, lat: list) -> dict:
    return {
        "ops_per_s": (loop.attempted - len(loop.failures)) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
    }


def end_to_end(args, cli, pins) -> tuple[Loop, dict, dict]:
    setup_s = measure_setup()
    cycle = len(wl.cycle(args.workload, pins))
    loop = Loop(cli, pins)
    loop.run_for(wl.requests(args.workload, args.seed, pins), args.seconds, MIN_REQUESTS, cycle)
    scaled = loop.scaled_latencies()
    values = dict(
        latency_metrics(loop, scaled),
        setup_s=setup_s,
        ok_ratio=(loop.attempted - len(loop.failures)) / loop.attempted,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    extra = {
        "samples": loop.attempted,
        "samples_above_p90": sum(x > values["latency_p90_s"] for x in scaled),
        "unscaled": latency_metrics(loop, loop.latencies),
        "probe_median_s": statistics.median(s for _, s in loop.probes),
    }
    return loop, metrics, extra


def traced(args, cli, pins) -> tuple[Loop, dict, dict]:
    """Warm-up pass, traced pass, then untraced pass over the same requests."""
    from spans import Tracer

    warm = Loop(cli, pins)
    warm.run_for(wl.requests(args.workload, args.seed, pins), args.seconds / 3, 1,
                 len(wl.cycle(args.workload, pins)))
    n = warm.attempted
    tracer = Tracer()
    loop = Loop(cli, pins, tracer)
    tracer.install(cli)
    try:
        loop.run_list(islice(wl.requests(args.workload, args.seed, pins), n))
    finally:
        tracer.uninstall()
    plain = Loop(cli, pins)
    plain.run_list(islice(wl.requests(args.workload, args.seed, pins), n))
    metrics = tracer.layer_metrics()
    overhead = sum(loop.scaled_latencies()) / sum(plain.scaled_latencies())
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for other in (warm, plain):
        loop.attempted += other.attempted
        loop.failures += other.failures
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({"env": environment(args), "spans": tracer.spans}))
    extra = {"requests_per_pass": n, "spans": len(tracer.spans), "spans_file": spans_path.name}
    return loop, metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fractal_forest" / "cli.py").is_file():
        print(f"error: run from the repository root; {SRC}/fractal_forest is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fractal_forest import cli

    pins = wl.load_pins()
    OUT_DIR.mkdir(exist_ok=True)
    loop, metrics, extra = (traced if args.trace else end_to_end)(args, cli, pins)

    env = environment(args)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(result, env=env, **extra, failures=loop.failures[:20],
                  digit_limit_exit2_excluded=len(pins["digit_limit_exit2"]))
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
