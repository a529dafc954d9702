"""The benchmark tracer patches package functions by name; every name it
lists must still exist, or installing it fails."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    spans = _load_spans()
    for module, names in spans.TARGETS.items():
        home = importlib.import_module(f"fractal_forest.{module}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                assert callable(vars(getattr(home, cls_name)).get(method)), f"{module}.{name}"
            else:
                assert callable(getattr(home, name, None)), f"{module}.{name}"
