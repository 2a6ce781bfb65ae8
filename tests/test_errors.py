"""Every error type of normholo.errors is one the package raises.

A NormholoError subclass with no raise site under src/normholo is a
failure mode no caller can meet: it goes with the code that raised it.
"""

import ast
import functools
import inspect
from pathlib import Path

import pytest

import normholo
from normholo import errors

PACKAGE = Path(normholo.__file__).resolve().parent


@functools.cache
def _raised_names() -> frozenset:
    """Names of the classes constructed in a raise statement of the
    package's modules."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                names.add(node.exc.func.id)
    return frozenset(names)


@pytest.mark.parametrize("name", sorted(
    name for name, cls in vars(errors).items()
    if inspect.isclass(cls) and issubclass(cls, errors.NormholoError)
    and cls is not errors.NormholoError))
def test_error_type_has_a_raise_site(name):
    assert name in _raised_names(), f"no module of normholo raises {name}"
