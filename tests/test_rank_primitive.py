"""Every factorization of the package goes through its two primitives.

Rank, span and kernel decisions are made by linalg.rank_reveal, with one
threshold, and spectra come from kernels.jacobi_eigh.  A numpy.linalg
factorization anywhere else would make a rank decision by a rule of its
own (lstsq's rcond, matrix_rank's default tolerance) or factor data
that a primitive already factored, so this test reads the source and
allows those calls only inside the two primitives.
"""

import ast
from pathlib import Path

import normholo

FACTORIZATIONS = {"svd", "lstsq", "pinv", "matrix_rank", "qr", "eig",
                  "eigh", "eigvals", "eigvalsh"}
ALLOWED = {"linalg.rank_reveal", "kernels.jacobi_eigh"}


class _Finder(ast.NodeVisitor):
    """(qualified name of the enclosing function, factorization) pairs."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node):
        # np.linalg.svd, numpy.linalg.svd, or linalg.svd after an import
        if (node.attr in FACTORIZATIONS and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            self.found.append((".".join(self.scope), node.attr))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy.linalg":
            for alias in node.names:
                if alias.name in FACTORIZATIONS:
                    self.found.append((".".join(self.scope), alias.name))


def factorization_sites(package_dir: Path) -> list:
    """Sorted (qualified function, factorization) pairs of a package."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        finder = _Finder(path.stem)
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        found += finder.found
    return sorted(found)


def test_finder_sees_each_spelling():
    src = ("import numpy as np\n"
           "from numpy.linalg import qr\n"
           "class A:\n"
           "    def f(self):\n"
           "        return np.linalg.lstsq(1, 2), np.linalg.norm(3)\n")
    finder = _Finder("mod")
    finder.visit(ast.parse(src))
    assert finder.found == [("mod", "qr"), ("mod.A.f", "lstsq")]


def test_factorizations_only_in_the_primitives():
    sites = factorization_sites(Path(normholo.__file__).parent)
    outside = [f"{where}: np.linalg.{name}" for where, name in sites
               if where not in ALLOWED]
    assert not outside, ("numpy.linalg factorizations outside "
                         "linalg.rank_reveal and kernels.jacobi_eigh: "
                         + ", ".join(outside))
    assert {where for where, _ in sites} == ALLOWED
