import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import settings

from normholo.orbit import build_orbit, shape_operator
from normholo.srep import SymmetricPairRep
from normholo.veronese import veronese_orbit

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


def traceless_shape_operator(m, xi) -> np.ndarray:
    """A_xi - tr(A_xi)/n Id of one normal vector, from shape_operator:
    the per-point oracle of the stacked traceless spectra."""
    a = shape_operator(m, xi)
    return a - (np.trace(a) / m.dim) * np.eye(m.dim)


def _veronese_block(r: int) -> np.ndarray:
    e = np.zeros((r, r))
    e[0, 0] = 1.0
    return e - np.eye(r) / r


@pytest.fixture(scope="session")
def veronese():
    """Factory with a session cache: veronese(n) -> OrbitSubmanifold."""
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = veronese_orbit(n).orbit
        return cache[n]

    return get


@pytest.fixture(scope="session")
def v2(veronese):
    return veronese(2)


@pytest.fixture(scope="session")
def v3(veronese):
    return veronese(3)


@pytest.fixture(scope="session")
def v4(veronese):
    return veronese(4)


@pytest.fixture(scope="session")
def a2_orbit():
    # principal orbit: generic traceless diagonal, flat normal bundle
    rep = SymmetricPairRep.for_size(3)
    return build_orbit(rep, np.diag([1.0, 0.0, -1.0]))


@pytest.fixture(scope="session")
def product_orbit():
    # two Veronese factors side by side; the canonical rank-2 example
    rep = SymmetricPairRep.product((3, 3))
    p = np.zeros((6, 6))
    p[:3, :3] = _veronese_block(3)
    p[3:, 3:] = _veronese_block(3)
    return build_orbit(rep, p)


@pytest.fixture
def build_orbit_calls(monkeypatch):
    """Calls to build_orbit through any normholo module, recorded."""
    import normholo
    import normholo.orbit

    calls = []
    real = normholo.orbit.build_orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # report imports some layers only when a scenario names them: import
    # every module first, so that none binds build_orbit while the patch
    # is live and keeps the counting wrapper after the test
    modules = [normholo] + [
        importlib.import_module(f"normholo.{info.name}")
        for info in pkgutil.iter_modules(normholo.__path__)]
    for module in modules:
        if getattr(module, "build_orbit", None) is real:
            monkeypatch.setattr(module, "build_orbit", counted)
    return calls
