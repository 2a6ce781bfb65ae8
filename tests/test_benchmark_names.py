"""The per-layer metric names of BENCHMARK.json name existing code.

A per-layer name is <span>.<stat>; the span is a normholo module, a
public function a module defines, or a Class.method.  A span that no
longer exists would make the traced benchmark run fail, so renaming or
deleting one fails here first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# metrics of the whole run, not of a layer
RUN_LEVEL = ("trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s",
             "runtime_warnings", "failed_ratio")


def _spans():
    spec = json.loads(BENCHMARK.read_text())
    return sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                   if m["name"] not in RUN_LEVEL})


def _resolves(span: str) -> bool:
    modname, *rest = span.split(".")
    try:
        mod = importlib.import_module(f"normholo.{modname}")
    except ImportError:
        return False
    if not rest:
        return True
    if len(rest) == 1:
        fn = getattr(mod, rest[0], None)
        return (inspect.isfunction(fn) and not rest[0].startswith("_")
                and fn.__module__ == mod.__name__)
    if len(rest) == 2:
        cls = getattr(mod, rest[0], None)
        return (inspect.isclass(cls)
                and inspect.isfunction(vars(cls).get(rest[1])))
    return False


@pytest.mark.parametrize("span", _spans())
def test_per_layer_span_exists(span):
    assert _resolves(span), f"{span} is not a normholo module, function " \
        "or Class.method"
