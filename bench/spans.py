"""Spans around the public functions of each fractal_forest layer.

The tracer wraps functions from outside the package: each target is
replaced in every loaded ``fractal_forest`` namespace that binds it (the
CLI imports most of them by name), and methods are replaced on their
class.  Spans (name, start, end, parent, request) stay in memory until
the run ends.  A layer's busy time is its self time: the span's duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from fractions import Fraction

# module -> public functions whose calls are recorded; "Class.method" is
# patched on the class
TARGETS = {
    "graphs": ("build_hanoi", "build_sierpinski"),
    "kirchhoff": (
        "tree_gf_cofactor", "schur_pipeline", "schur_map",
        "schur_map_divergence", "lambda_matrix",
    ),
    "hanoi": ("hanoi_bundle", "hanoi_counts_recursive", "hanoi_counts_closed"),
    "sierpinski": (
        "rot_bundle", "dir_bundle", "schreier_bundle",
        "rot_closed", "dir_closed", "schreier_closed",
        "dir_closed_value", "schreier_closed_value",
    ),
    "algebra": ("FactoredPoly.evaluate", "poly_equal_by_sampling", "TriPoly.text"),
    "oracle": ("enumerate_gf",),
    "stats": ("label_mean_gf", "label_variance_gf", "normality_gap"),
}

# functions whose result is exact: their spans also record its bit size
EXACT_RESULTS = {
    "kirchhoff.tree_gf_cofactor", "kirchhoff.schur_pipeline", "kirchhoff.schur_map",
    "kirchhoff.lambda_matrix", "hanoi.hanoi_bundle", "hanoi.hanoi_counts_recursive",
    "hanoi.hanoi_counts_closed", "sierpinski.rot_bundle", "sierpinski.dir_bundle",
    "sierpinski.schreier_bundle", "sierpinski.dir_closed_value",
    "sierpinski.schreier_closed_value", "algebra.FactoredPoly.evaluate",
    "stats.label_mean_gf", "stats.label_variance_gf",
}

CLI_SPAN = "cli.main"
GF_COUNTERS = ("methods_run", "methods_skipped", "fallbacks")


def max_bits(x) -> int:
    """Largest numerator or denominator bit length inside an exact result."""
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max(map(max_bits, x), default=0)
    if hasattr(x, "terms"):  # TriPoly: integer coefficients
        return max_bits(list(x.terms.values()))
    if hasattr(x, "rows"):  # RationalMatrix
        return max(map(max_bits, x.rows), default=0)
    if dataclasses.is_dataclass(x):  # bundles, counts, Schur states
        return max(
            (max_bits(getattr(x, f.name)) for f in dataclasses.fields(x) if f.name != "weights"),
            default=0,
        )
    return 0


def _size(name: str, args, result) -> int:
    if name == "kirchhoff.tree_gf_cofactor":
        return len(args[0].vertices) - 1  # dimension of the reduced Laplacian
    if name == "oracle.enumerate_gf":
        return len(result.terms)
    return 0


class Tracer:
    """Records spans as [name, start, end, parent index, request, bits, size]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = -1
        self._restore: list = []
        self.gf_counts = dict.fromkeys(GF_COUNTERS, 0)
        self.output_bytes = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        exact = name in EXACT_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if exact:
                    span[5] = max_bits(result)
                span[6] = _size(name, args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, cli_module) -> None:
        """Patch every target in every fractal_forest namespace that binds it."""
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if n == "fractal_forest" or n.startswith("fractal_forest.")
        ]
        for module, names in TARGETS.items():
            home = sys.modules[f"fractal_forest.{module}"]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    self._patch(owner, meth, self.wrap(f"{module}.{attr}", owner.__dict__[meth]))
                    continue
                original = getattr(home, attr)
                wrapped = self.wrap(f"{module}.{attr}", original)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is original:
                        self._patch(ns, attr, wrapped)
        self._patch(cli_module, "main", self.wrap(CLI_SPAN, cli_module.main))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def note_output(self, out: str, report) -> None:
        self.output_bytes += len(out.encode())
        if report is not None and "methods" in report:
            self.gf_counts["methods_run"] += len(report["methods"])
            self.gf_counts["methods_skipped"] += len(report.get("skipped", {}))
            self.gf_counts["fallbacks"] += len(report.get("fallbacks", []))

    def layer_metrics(self) -> dict:
        """Per-layer metrics: calls, self time and result size of each target."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows = {name: [0, 0.0, 0, 0] for name in metric_targets()}
        for i, (name, start, end, _parent, _req, bits, size) in enumerate(self.spans):
            row = rows[name]
            row[0] += 1
            row[1] += end - start - child_time[i]
            row[2] = max(row[2], bits)
            row[3] = max(row[3], size)
        metrics = {}
        for name, (calls, busy, bits, size) in rows.items():
            if name == CLI_SPAN:
                metrics["cli.self_s"] = (busy, "s")
                continue
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.busy_s"] = (busy, "s")
            if name in EXACT_RESULTS:
                metrics[f"{name}.max_bits"] = (bits, "bits")
            if name == "kirchhoff.tree_gf_cofactor":
                metrics[f"{name}.max_dim"] = (size, "count")
            if name == "oracle.enumerate_gf":
                metrics[f"{name}.terms"] = (size, "count")
        metrics["cli.output_bytes"] = (self.output_bytes, "bytes")
        for key, value in self.gf_counts.items():
            metrics[f"cli.gf.{key}"] = (value, "count")
        return metrics


def metric_targets() -> list:
    return [CLI_SPAN] + [f"{m}.{a}" for m, names in TARGETS.items() for a in names]
