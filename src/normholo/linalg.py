"""Dense numeric core: spectra, spans, projections, tolerant kernels.

All inner products are trace(A^T B); on symmetric matrices this is
trace(AB).  Spectra come from LAPACK (kernels.jacobi_eigh).  Every rank,
span or kernel decision uses rank_reveal's test: a singular value
counts as zero when sigma <= tols.rank * (1 + scale), with scale taken
from the input as offered.  So thresholds agree across modules.  When a
span is extended, a residual whose Frobenius norm is already within
that threshold has rank 0 (sigma_max <= ||R||_F) and skips the SVD.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .kernels import jacobi_eigh, matrix_exp as _expm_core


class Tolerances(NamedTuple):
    """Shared numeric thresholds.

    sym: allowed asymmetry before a matrix is rejected as "symmetric"
    eig: eigenvalue agreement (x100: coxeter's scalarity audit, the
        tube-direction solve); seeded_tube_direction's null shape
    rank: relative threshold for tolerant rank / kernel decisions
    cluster_gap: eigenvalues closer than this share a cluster
    """

    sym: float = 1e-10
    eig: float = 1e-9
    rank: float = 1e-8
    cluster_gap: float = 1e-6


DEFAULT_TOLS = Tolerances()


class SpectralDecomposition(NamedTuple):
    """Eigenvalues ascending, orthonormal eigenvector columns, clusters.

    clusters is a tuple of index tuples; consecutive eigenvalues whose
    gap is below the cluster threshold share a cluster.
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: tuple = ()

    def cluster_means(self) -> np.ndarray:
        return np.array([float(np.mean(self.values[list(c)]))
                         for c in self.clusters])

    def cluster_sizes(self) -> tuple:
        return tuple(len(c) for c in self.clusters)


class Subspace(NamedTuple):
    """Orthonormal basis columns of a subspace of R^ambient_dim."""

    ambient_dim: int
    basis: np.ndarray  # (ambient_dim, k)
    tol: float = DEFAULT_TOLS.rank

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ x)

    def coords(self, x: np.ndarray) -> np.ndarray:
        return self.basis.T @ x

    def contains(self, x: np.ndarray) -> bool:
        res = x - self.project(x)
        return (float(np.linalg.norm(res))
                <= self.tol * (1.0 + float(np.linalg.norm(x))))


def _parity_part(a, tol: float, skew: bool) -> np.ndarray:
    """The one parity test: a square matrix or (N, n, n) stack, each with
    a finite norm and ||a -+ a^T|| <= tol (1 + ||a||); returns the
    symmetric part, or the skew part when skew is set."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    size = np.sqrt(np.einsum("...ij,...ij->...", a, a))
    if not (size < np.inf).all():           # inf or NaN entries, or overflow
        raise InvalidInput("matrix needs finite entries and a finite norm")
    at = np.swapaxes(a, -2, -1)
    d = a + at if skew else a - at
    if (np.sqrt(np.einsum("...ij,...ij->...", d, d)) > tol * (1 + size)).any():
        raise InvalidInput("matrix is not %s within tolerance"
                           % ("skew-symmetric" if skew else "symmetric"))
    return 0.5 * (a - at) if skew else 0.5 * (a + at)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (..., N) array, one dot product
    per row, so each has the bits of numpy.linalg.norm on that row."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def check_symmetric(a: np.ndarray, tol: float = DEFAULT_TOLS.sym) -> np.ndarray:
    """Symmetric part of a square matrix or (N, n, n) stack, checked."""
    return _parity_part(a, tol, skew=False)


def check_skew(a: np.ndarray, tol: float = DEFAULT_TOLS.sym) -> np.ndarray:
    """Skew part of a square matrix or (N, n, n) stack, checked."""
    return _parity_part(a, tol, skew=True)


def _as_float(value) -> float:
    """float(value) for a number (not a bool) or a numeric string, NaN
    for anything else, so that no range test passes it."""
    if isinstance(value, bool):
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def check_positive(name: str, value) -> float:
    """value as a float that is finite and > 0: a number (not a bool)
    or a numeric string; anything else is InvalidInput naming name."""
    x = _as_float(value)
    if not 0.0 < x < np.inf:
        raise InvalidInput(f"{name} must be finite and positive, "
                           f"got {value!r}")
    return x


def check_duration(name: str, value) -> float:
    """value as a float that is finite and >= 0 (a curve segment's
    duration): a number (not a bool) or a numeric string; anything else
    is InvalidInput naming name."""
    x = _as_float(value)
    if not 0.0 <= x < np.inf:
        raise InvalidInput(f"{name} must be finite and >= 0, got {value!r}")
    return x


def cluster_indices(values: np.ndarray, gap: float) -> tuple:
    """Group ascending values: a new cluster starts when the gap to the
    previous value exceeds the threshold."""
    if len(values) == 0:
        return ()
    clusters = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return tuple(tuple(c) for c in clusters)


def sym_eig(a: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Spectral decomposition of a symmetric matrix (LAPACK)."""
    a = check_symmetric(a, tols.sym)
    w, v = jacobi_eigh(a)
    clusters = cluster_indices(w, tols.cluster_gap)
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(values=w, vectors=v, clusters=clusters)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidInput("bracket needs two square matrices of equal size")
    return x @ y - y @ x

def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix or of each matrix of an
    (N, n, n) stack (scaled Taylor, exact identity at zero)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2] != x.shape[-1]:
        raise InvalidInput("matrix_exp needs square matrices")
    if not np.einsum("...ij,...ij", x, x).sum() < np.inf:  # inf, NaN, overflow
        raise InvalidInput("matrix_exp needs finite entries")
    return _expm_core(x)


def rank_reveal(mat: np.ndarray, tol: float = DEFAULT_TOLS.rank,
                scale: float | None = None, full: bool = False):
    """SVD of a matrix, or of each matrix of a stack, with its
    numerical rank.

    Every rank, span and kernel decision of the package goes through
    this one test: a singular value is zero when it is at most
    tol * (1 + scale).  scale measures the input as offered (the
    largest singular value unless given), never a residual.  Returns
    (u, s, vt, rank), singular values descending, rank an int array
    over a stack; full asks for square u and vt.
    """
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=float),
                             full_matrices=full)
    if s.ndim > 1:
        scale = s[:, :1] if scale is None else scale
        return u, s, vt, (s > tol * (1.0 + scale)).sum(axis=1)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return u, s, vt, int(np.count_nonzero(s > tol * (1.0 + scale)))


def _as_columns(vectors, ambient_dim: int | None) -> np.ndarray:
    """The offered vectors, each raveled, as the columns of an
    (ambient_dim, n) array: the transposed view of their stacked rows."""
    n = len(vectors)
    if ambient_dim is None:
        if not n:
            raise InvalidInput("cannot infer ambient dimension of empty span")
        ambient_dim = np.size(vectors[0])
    try:
        rows = np.asarray(vectors, dtype=float)
    except ValueError as exc:   # ragged: the vectors differ in shape
        raise InvalidInput("span vectors have inconsistent sizes") from exc
    if rows.size != n * ambient_dim:
        raise InvalidInput("span vectors have inconsistent sizes")
    return rows.reshape(n, ambient_dim).T


def _new_directions(block: np.ndarray, kept: np.ndarray, tol: float,
                    scale: float) -> np.ndarray:
    """Orthonormal columns for what block adds to the span of kept.

    The block is projected off the kept basis twice, then the residual
    is rank-revealed against the scale of the block as offered.  A
    residual whose Frobenius norm is within the threshold has rank 0
    (sigma_max <= ||R||_F), so it adds nothing without an SVD; the test
    runs after each projection, since the second cannot raise the norm.
    """
    for _ in range(2):
        block = block - kept @ (kept.T @ block)
        if float(np.linalg.norm(block)) <= tol * (1.0 + scale):
            return block[:, :0]
    u, _, _, rank = rank_reveal(block, tol, scale)
    return u[:, :rank]


def _column_scale(block: np.ndarray) -> float:
    scale = float(np.max(np.linalg.norm(block, axis=0), initial=0.0))
    if not scale < np.inf:                  # inf or NaN entries
        raise InvalidInput("span vectors need finite entries")
    return scale


def _frozen_subspace(basis: np.ndarray, tol: float) -> Subspace:
    basis = np.ascontiguousarray(basis)
    basis.flags.writeable = False
    return Subspace(ambient_dim=basis.shape[0], basis=basis, tol=tol)


def orthonormal_span(vectors, ambient_dim: int | None = None,
                     tol: float = DEFAULT_TOLS.rank) -> Subspace:
    """Orthonormal span of a list of vectors.

    Left singular vectors of the stacked vectors; the rank test is
    rank_reveal's, scaled by the largest offered vector norm.
    """
    block = _as_columns(vectors, ambient_dim)
    u, _, _, rank = rank_reveal(block, tol, _column_scale(block))
    return _frozen_subspace(u[:, :rank], tol)


def extend_span(space: Subspace, vectors) -> Subspace:
    """Grow a span by extra vectors; the old basis is kept as a prefix.

    vectors is an (n, ambient_dim) array of rows (or a list of n
    vectors); the same Subspace comes back when they add no direction.
    """
    block = _as_columns(vectors, space.ambient_dim)
    new = _new_directions(block, space.basis, space.tol, _column_scale(block))
    if new.shape[1] == 0:
        return space
    return _frozen_subspace(np.hstack([space.basis, new]), space.tol)


def gram_kernel(mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> Subspace:
    """Kernel of a linear map given as rows-act matrix (m, n).

    Right singular vectors that rank_reveal counts as zero.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise InvalidInput("gram_kernel expects a 2-d matrix")
    _, _, vt, rank = rank_reveal(mat, tols.rank,
                                 full=mat.shape[0] < mat.shape[1])
    return _frozen_subspace(vt[rank:].T, tols.rank)


def mgs_qr(a: np.ndarray, tol: float = DEFAULT_TOLS.rank):
    """Thin QR over the columns that add a direction, in order.

    Returns (q, r, accepted) where accepted lists the column indices that
    survived the rank test (rank_reveal's, on the residual of each column
    after two projections off the accepted ones, scaled by the largest
    column norm); r is square over the accepted columns.
    """
    a = np.asarray(a, dtype=float)
    scale = _column_scale(a)
    q = np.zeros((a.shape[0], 0))
    accepted = []
    for j in range(a.shape[1]):
        new = _new_directions(a[:, j:j + 1], q, tol, scale)
        if new.shape[1]:
            q = np.hstack([q, new])
            accepted.append(j)
    return q, np.triu(q.T @ a[:, accepted]), accepted


def _sine_max(a: Subspace, b: Subspace) -> float:
    """sin of the largest principal angle of the smaller space into the
    larger, ||B - A(A^T B)||_2 with A the larger basis; 0 when empty."""
    if a.dim < b.dim:
        a, b = b, a
    if b.dim == 0:
        return 0.0
    return float(np.linalg.norm(b.basis - a.basis @ (a.basis.T @ b.basis), 2))


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Spectral-norm distance between orthogonal projectors: sin of the
    largest principal angle, or 1 when the dimensions differ."""
    if a.ambient_dim != b.ambient_dim:
        raise InvalidInput("subspaces live in different ambient spaces")
    if a.dim != b.dim:
        return 1.0
    return _sine_max(a, b)


def principal_angle_max(a: Subspace, b: Subspace) -> float:
    """Largest principal angle of the smaller space into the larger."""
    return float(np.arcsin(min(1.0, _sine_max(a, b))))


def orthogonal_log(t: np.ndarray) -> np.ndarray:
    """Principal log of an orthogonal matrix close to the identity, or of
    each matrix of an (L, n, n) stack.

    Series in e = t - id, 24 terms.  Every matrix is checked to have
    ||e||_F <= 0.7; then each eigenvalue l of t has |l - 1| <= 0.7/sqrt(2)
    and the series tail bounds the error by 2.6e-9 in the Frobenius
    norm.  One plane rotation at that edge (angle 0.5) reads 1.2e-9;
    the error falls to 1.7e-13 at ||e||_F = 0.5 and to round-off at 0.3.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim not in (2, 3) or t.shape[-2] != t.shape[-1]:
        raise InvalidInput("orthogonal_log needs square matrices")
    n = t.shape[-1]
    e = t - np.eye(n)
    # negated so that NaN, for which every comparison is False, fails
    if not np.all(np.linalg.norm(e, axis=(-2, -1)) <= 0.7):
        raise InvalidInput("orthogonal_log expects a near-identity matrix")
    out = np.zeros_like(e)
    power = np.eye(n)
    for k in range(1, 25):
        power = power @ e
        out += ((-1.0) ** (k + 1) / k) * power
    return 0.5 * (out - np.swapaxes(out, -2, -1))


def polar_orthogonalize(t: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix via at most 12 Newton steps for the polar
    factor."""
    q = np.asarray(t, dtype=float).copy()
    for _ in range(12):
        qi = np.linalg.inv(q)
        q_next = 0.5 * (q + qi.T)
        if float(np.linalg.norm(q_next - q)) < 1e-15:
            q = q_next
            break
        q = q_next
    return q
