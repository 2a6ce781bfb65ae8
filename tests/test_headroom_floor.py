"""Numerical headroom of one seed-0 pass of each benchmark workload.

headroom_digits is the benchmark's accuracy metric: the smallest
log10(tolerance / residual) over the checked residuals of a pass.  The
floors sit a little under today's values, so a change that costs the
numerics digits fails here before it reaches a benchmark run.  The
workload specs and the metric are read from perfbench/workloads.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from normholo.report import ScenarioConfig, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _workloads_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads_module()

# 6.668, 6.710 and 9.477 at seed 0 when the floors were set
FLOORS = {"holonomy-large": 6.5, "transport-loops": 9.35, "sweep-small": 6.5}


def test_every_workload_has_a_floor():
    assert set(FLOORS) == set(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(FLOORS))
def test_headroom_floor(workload):
    bodies = [json.loads(run_scenario(ScenarioConfig.from_dict(c)).body_text())
              for c in WORKLOADS.scenarios(workload, 0)]
    pairs = [p for body in bodies for p in WORKLOADS.residuals(body)]
    assert pairs, "the pass checks no residual"
    assert WORKLOADS.headroom_digits(pairs) >= FLOORS[workload]
