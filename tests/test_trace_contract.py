"""The benchmark's tracer names credal functions by (module, name); a
rename or deletion would only surface when `bench/run.py --trace 1`
installs the tracer, so the names are checked here."""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for mod, fn in _tracer().WRAPPED:
        assert callable(getattr(importlib.import_module(f"credal.{mod}"), fn, None)), (mod, fn)


def test_per_layer_names_match_the_benchmark():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert _tracer().per_layer_names() == [m["name"] for m in declared]
