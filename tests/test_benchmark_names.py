"""The per-layer metric names of BENCHMARK.json name existing code.

A per-layer name is <span>.<stat>; the span is a normholo module, a
public function a module defines, or a Class.method.  A span that no
longer exists would make the traced benchmark run fail, so renaming or
deleting one fails here first.  The same holds for the per-call
counters of perfbench/spans.py, which read arguments by name: each is
run on a real call bound against the current signature.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from normholo.kernels import matrix_exp
from normholo.linalg import orthonormal_span

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
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


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COUNTERS = _spans_module().COUNTERS


# One real call per counter, made as the package makes it, as
# (args, kwargs, the counts the counter must return), on a Veronese orbit.
def _extend_span_call(orbit):
    space = orthonormal_span(np.eye(3)[:1], ambient_dim=3)
    return (space, np.eye(3)[1:]), {}, {"offered": 2, "kept": 2}


def _transport_segment_call(orbit):
    xis = orbit.nbar_frame[:1]
    e_half = matrix_exp(0.05 * orbit.m_generators[0])
    targets = np.linalg.norm(xis.reshape(1, -1), axis=1)
    args = (orbit.normal_frame, xis, np.eye(orbit.rep.total_size), e_half,
            4, targets)
    return args, {}, {"steps": 4}


def _loop_probe_call(orbit):
    return (orbit,), {"count": 2}, {"kept": 2}


_CALLS = {"linalg.extend_span": _extend_span_call,
          "kernels.transport_segment": _transport_segment_call,
          "holonomy.loop_holonomy_probe": _loop_probe_call}


@pytest.mark.parametrize("span", sorted(COUNTERS))
def test_span_counter_binds_current_signature(span, v3):
    assert span in _CALLS, f"no sample call for the {span} counter"
    assert _resolves(span)
    modname, name = span.split(".")
    fn = getattr(importlib.import_module(f"normholo.{modname}"), name)
    args, kwargs, want = _CALLS[span](v3)
    arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
    assert COUNTERS[span](arguments, fn(*args, **kwargs)) == want
