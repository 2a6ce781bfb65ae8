"""Functions that receive an orbit read their thresholds from it.

An orbit fixes its tolerances when it is built (OrbitSubmanifold.tols),
so a public function or method that takes an orbit-carrying argument
must not take a second ``tols`` of its own.
"""

import importlib
import inspect
import pkgutil
import re

import numpy as np

import normholo
from normholo.holonomy import analyze, holonomy_algebra
from normholo.linalg import DEFAULT_TOLS
from normholo.orbit import build_orbit
from normholo.srep import SymmetricPairRep

ORBIT_TYPES = re.compile(r"\b(OrbitSubmanifold|CurvatureNormalSet|"
                         r"TransportResult|TubePatch|OrbitCurve)\b")


def _public_callables():
    """(dotted name, function) of every public function and method, and
    every __init__, that a normholo module defines."""
    for info in pkgutil.iter_modules(normholo.__path__):
        mod = importlib.import_module(f"normholo.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__",
                                               None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn) and (
                            attr == "__init__" or not attr.startswith("_")):
                        yield f"{info.name}.{name}.{attr}", fn


def test_orbit_analyses_take_no_tols():
    walked = dict(_public_callables())
    assert {"holonomy.analyze", "tubes.TubePatch.__init__",
            "coxeter.reflection_group"} <= set(walked)
    offenders = []
    for name, fn in walked.items():
        params = inspect.signature(fn).parameters.values()
        if any(p.name == "tols" for p in params) and any(
                ORBIT_TYPES.search(str(p.annotation)) for p in params):
            offenders.append(name)
    assert not offenders, f"take both an orbit and tols: {offenders}"


def test_restricted_factor_spans_keep_the_orbit_rank_threshold():
    # an algebra restricted to an invariant factor ranks at the
    # threshold of the orbit it came from, not at the default
    tols = DEFAULT_TOLS._replace(rank=1e-6)
    M = build_orbit(SymmetricPairRep.for_size(5),
                    np.diag([4.0, -1, -1, -1, -1]), tols=tols)
    verdict = analyze(M)
    algebra = holonomy_algebra(M)
    assert algebra.space.tol == 1e-6
    assert verdict.factors
    for factor in verdict.factors:
        assert algebra.restrict(factor.subspace).space.tol == 1e-6
