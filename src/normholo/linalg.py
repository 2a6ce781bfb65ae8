"""Dense numeric core: spectra, spans, projections, tolerant kernels.

All inner products are trace(A^T B); on symmetric matrices this is
trace(AB).  Spectra come from LAPACK (kernels.jacobi_eigh).  Every rank,
span or kernel decision goes through rank_reveal: an SVD whose singular
values count as zero when sigma <= tols.rank * (1 + scale), with scale
taken from the input as offered.  So thresholds agree across modules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput
from .kernels import jacobi_eigh, matrix_exp as _expm_core


@dataclass(frozen=True)
class Tolerances:
    """Shared numeric thresholds.

    sym: allowed asymmetry before a matrix is rejected as "symmetric"
    eig: reconstruction tolerance for spectral decompositions
    rank: relative threshold for tolerant rank / kernel decisions
    cluster_gap: eigenvalues closer than this share a cluster
    """

    sym: float = 1e-10
    eig: float = 1e-9
    rank: float = 1e-8
    cluster_gap: float = 1e-6

    def with_cluster_gap(self, gap: float) -> "Tolerances":
        return replace(self, cluster_gap=gap)


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True)
class SpectralDecomposition:
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


@dataclass(frozen=True)
class Subspace:
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

    def contains(self, x: np.ndarray, tol: float | None = None) -> bool:
        t = self.tol if tol is None else tol
        res = x - self.project(x)
        return float(np.linalg.norm(res)) <= t * (1.0 + float(np.linalg.norm(x)))

    def complement_within(self, other: "Subspace") -> "Subspace":
        """Orthogonal complement of self inside other (self must sit in it)."""
        return _frozen_subspace(
            _new_directions(other.basis, self.basis, self.tol, 1.0), self.tol)


def check_symmetric(a: np.ndarray, tol: float = DEFAULT_TOLS.sym) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > tol * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


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
    """Matrix exponential (scaled Taylor, exact identity at zero)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidInput("matrix_exp needs a square matrix")
    return _expm_core(x)


def rank_reveal(mat: np.ndarray, tol: float = DEFAULT_TOLS.rank,
                scale: float | None = None, full: bool = False):
    """SVD of a matrix with its numerical rank.

    Every rank, span and kernel decision of the package goes through
    this one test: a singular value is zero when it is at most
    tol * (1 + scale).  scale measures the input as offered (the
    largest singular value unless given), never a residual.  Returns
    (u, s, vt, rank), singular values descending; full asks for square
    u and vt.
    """
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=float),
                             full_matrices=full)
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return u, s, vt, int(np.count_nonzero(s > tol * (1.0 + scale)))


def _as_columns(vectors, ambient_dim: int | None) -> np.ndarray:
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise InvalidInput("cannot infer ambient dimension of empty span")
        ambient_dim = vecs[0].size
    if any(v.size != ambient_dim for v in vecs):
        raise InvalidInput("span vectors have inconsistent sizes")
    if not vecs:
        return np.zeros((ambient_dim, 0))
    return np.column_stack(vecs)


def _new_directions(block: np.ndarray, kept: np.ndarray, tol: float,
                    scale: float) -> np.ndarray:
    """Orthonormal columns for what block adds to the span of kept.

    The block is projected off the kept basis twice, then the residual
    is rank-revealed against the scale of the block as offered.
    """
    for _ in range(2):
        block = block - kept @ (kept.T @ block)
    u, _, _, rank = rank_reveal(block, tol, scale)
    return u[:, :rank]


def _column_scale(block: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(block, axis=0), initial=0.0))


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
    """Grow a span by extra vectors; the old basis is kept as a prefix."""
    block = _as_columns(vectors, space.ambient_dim)
    new = _new_directions(block, space.basis, space.tol, _column_scale(block))
    if new.shape[1] == 0:
        return space
    return _frozen_subspace(np.hstack([space.basis, new]), space.tol)


def project_onto(space: Subspace, x: np.ndarray) -> np.ndarray:
    return space.project(np.asarray(x, dtype=float).ravel())


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


def tolerant_rank(mat: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> int:
    return rank_reveal(mat, tols.rank)[3]


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


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Spectral-norm distance between orthogonal projectors."""
    if a.ambient_dim != b.ambient_dim:
        raise InvalidInput("subspaces live in different ambient spaces")
    diff = a.basis @ a.basis.T - b.basis @ b.basis.T
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def principal_angle_max(a: Subspace, b: Subspace) -> float:
    """Largest principal angle between equal-dimension subspaces (radians)."""
    if a.dim == 0 or b.dim == 0:
        return 0.0
    smin = float(np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)[-1])
    return float(np.arccos(min(1.0, smin)))


def orthogonal_log(t: np.ndarray, terms: int = 24) -> np.ndarray:
    """Principal log of an orthogonal matrix close to the identity.

    Series in e = t - id; callers keep ||e|| well below 1, where 24
    terms are far past machine precision.
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    e = t - np.eye(n)
    if float(np.linalg.norm(e)) > 0.7:
        raise InvalidInput("orthogonal_log expects a near-identity matrix")
    out = np.zeros_like(e)
    power = np.eye(n)
    for k in range(1, terms + 1):
        power = power @ e
        out += ((-1.0) ** (k + 1) / k) * power
    return 0.5 * (out - out.T)


def polar_orthogonalize(t: np.ndarray, sweeps: int = 12) -> np.ndarray:
    """Nearest orthogonal matrix via Newton iteration for the polar factor."""
    q = np.asarray(t, dtype=float).copy()
    for _ in range(sweeps):
        qi = np.linalg.inv(q)
        q_next = 0.5 * (q + qi.T)
        if float(np.linalg.norm(q_next - q)) < 1e-15:
            q = q_next
            break
        q = q_next
    return q
