"""Orbit geometry and normal holonomy for conjugation actions on
traceless symmetric matrices.

The package builds orbit submanifolds of the rotation-group conjugation
action, extracts their extrinsic invariants (shape operators, adapted
normal curvature, normal holonomy algebra), runs holonomy-tube and
Coxeter analyses, and ships a CLI that writes deterministic JSON
reports.
"""

__version__ = "0.1.0"

from .errors import (
    ClosureCapReached,
    DegenerateSpectrum,
    DimensionCapExceeded,
    FocalDegeneracy,
    InvalidInput,
    InvalidShift,
    NormholoError,
    NotApplicable,
    NotIsoparametric,
    PatchDegenerate,
    TransportDiverged,
)
from .linalg import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Subspace,
    Tolerances,
    bracket,
    matrix_exp,
    orthonormal_span,
    sym_eig,
)

__all__ = [
    "DEFAULT_TOLS",
    "ClosureCapReached",
    "DegenerateSpectrum",
    "DimensionCapExceeded",
    "FocalDegeneracy",
    "InvalidInput",
    "InvalidShift",
    "NormholoError",
    "NotApplicable",
    "NotIsoparametric",
    "PatchDegenerate",
    "SpectralDecomposition",
    "Subspace",
    "Tolerances",
    "TransportDiverged",
    "bracket",
    "matrix_exp",
    "orthonormal_span",
    "sym_eig",
    "__version__",
]
