"""linalg.matrix_exp is the package's one validated exponential.

It checks shapes and finiteness before calling the kernel, so no other
module may bind kernels.matrix_exp directly, under any name.
"""

import importlib
import pkgutil

import normholo
from normholo import kernels


def test_only_linalg_binds_the_exponential_kernel():
    modules = {"normholo": normholo}
    for info in pkgutil.iter_modules(normholo.__path__):
        modules[info.name] = importlib.import_module(f"normholo.{info.name}")
    bound = {}
    for label, mod in modules.items():
        names = [name for name, obj in vars(mod).items()
                 if obj is kernels.matrix_exp]
        if names and label != "kernels":
            bound[label] = names
    assert bound == {"linalg": ["_expm_core"]}
