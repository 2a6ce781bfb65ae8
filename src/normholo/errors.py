"""Error types raised by the geometry pipeline.

Every failure mode that a caller can reasonably branch on gets its own
class; everything derives from NormholoError so CLI code can catch one
type and still write a report.
"""


class NormholoError(Exception):
    """Base class for all library errors."""


class InvalidInput(NormholoError):
    """Input violates a documented precondition (shape, symmetry, range)."""


class DimensionCapExceeded(NormholoError):
    """A span or closure grew past the configured dimension cap."""


class ClosureCapReached(NormholoError):
    """Group closure hit the element cap before stabilizing."""


class TransportDiverged(NormholoError):
    """Discrete parallel transport lost more than half the vector norm."""


class FocalDegeneracy(NormholoError):
    """A shape-operator eigenvalue sits at 1, so the focal formula blows up."""


class PatchDegenerate(NormholoError):
    """A finite-difference patch has rank-deficient tangent data."""


class NotIsoparametric(NormholoError):
    """Curvature-normal extraction was asked for but the normal curvature
    does not vanish, so no common eigenbasis exists."""


class DegenerateSpectrum(NormholoError):
    """Eigenvalue clusters overlap within tolerance; the requested
    combinatorial structure (multiplicities, normals) is ambiguous."""


class NotApplicable(NormholoError):
    """The requested analysis requires structure this orbit does not have."""
