"""Represented Lie algebra structure: closures, splitting, transitivity.

A represented algebra is handled concretely as a span of skew matrices
acting on R^K.  The decomposition machinery splits the action into its
fixed set and irreducible invariant factors.

One rank-revealing SVD of the stacked basis gives the fixed set (its
kernel) and the moving space (its row space).  The symmetric commutant
on the moving space comes from a random generating pair x, y of the
algebra, solved on a small frame: whatever commutes with x commutes
with x^T x, so it is block diagonal on the eigenspaces of x^T x, a
frame of O(K) symmetric matrices for a generic x instead of all
K(K+1)/2.  A residual check against the full basis confirms the pair.
The moving space is then split by Schur's criterion: an invariant
subspace of an orthogonal action is irreducible exactly when the
commutant compressed to it is the scalars.  A subspace that fails is
split by the eigen-clusters of a random element of its compressed
commutant and the pieces are tested again.  On an irreducible action
the commutant is one-dimensional and the certificate costs nothing.

Bracket closures run through one frontier routine: each round offers
only the brackets of the directions the previous round added with the
whole span, never the whole span again.  Each element's brackets are
offered on their own as soon as they are formed, so no round's block is
ever stacked, and a chunk that adds nothing is certified by the
Frobenius norm of its residual, without an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DimensionCapExceeded, InvalidInput
from .linalg import (
    DEFAULT_TOLS,
    Subspace,
    Tolerances,
    _frozen_subspace,
    extend_span,
    orthonormal_span,
    rank_reveal,
    sym_eig,
)

TRANSITIVITY_PROBES = 8   # seeded unit vectors is_transitive_on_sphere tests


@dataclass(frozen=True)
class LieAlgebraSpan:
    """Orthonormal basis (under trace(X^T Y)) of a space of skew matrices."""

    acting_dim: int
    basis: tuple
    closed: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrices(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, self.acting_dim, self.acting_dim))
        return np.stack(self.basis)

    def restrict(self, space: Subspace) -> "LieAlgebraSpan":
        """Compress the action to an invariant subspace (given by columns)."""
        b = space.basis
        return skew_span(b.T @ self.matrices() @ b, acting_dim=space.dim)


def _check_skew(mats, acting_dim=None):
    """Stack square matrices of one size, each skew to 1e-8 relative,
    and return their skew parts with the acting dimension."""
    mats = [np.asarray(x, dtype=float) for x in mats]
    if any(x.ndim != 2 or x.shape[0] != x.shape[1] for x in mats):
        raise InvalidInput("algebra elements must be square matrices")
    if acting_dim is None:
        if not mats:
            raise InvalidInput("empty span needs an explicit acting dimension")
        acting_dim = mats[0].shape[0]
    if any(x.shape[0] != acting_dim for x in mats):
        raise InvalidInput("algebra elements act on inconsistent spaces")
    stack = np.stack(mats) if mats else np.zeros((0, acting_dim, acting_dim))
    flip = np.transpose(stack, (0, 2, 1))
    scale = 1.0 + np.linalg.norm(stack, axis=(1, 2))
    if np.any(np.linalg.norm(stack + flip, axis=(1, 2)) > 1e-8 * scale):
        raise InvalidInput("algebra elements must be skew-symmetric")
    return 0.5 * (stack - flip), acting_dim


def skew_span(mats, acting_dim: int | None = None,
              tol: float = DEFAULT_TOLS.rank) -> LieAlgebraSpan:
    """Orthonormalize a list of skew matrices into a span."""
    mats, acting_dim = _check_skew(mats, acting_dim)
    space = orthonormal_span(mats.reshape(len(mats), acting_dim * acting_dim),
                             ambient_dim=acting_dim * acting_dim, tol=tol)
    basis = tuple(space.basis[:, j].reshape(acting_dim, acting_dim)
                  for j in range(space.dim))
    return LieAlgebraSpan(acting_dim=acting_dim, basis=basis)


def bracket_closure(span_or_mats, cap: int | None = None,
                    tol: float = DEFAULT_TOLS.rank) -> LieAlgebraSpan:
    """Close a span of skew matrices under the commutator.

    cap bounds the allowed dimension; None means the full skew algebra
    on the acting space.  Exceeding it raises DimensionCapExceeded.
    """
    if isinstance(span_or_mats, LieAlgebraSpan):
        span = span_or_mats
    else:
        span = skew_span(list(span_or_mats))
    k = span.acting_dim
    if cap is None:
        cap = k * (k - 1) // 2

    space = orthonormal_span(span.matrices().reshape(-1, k * k),
                             ambient_dim=k * k, tol=tol)
    # each round offers only the brackets of the frontier (the columns
    # the previous round added) with the whole span: every pair i < j
    # whose later element is on the frontier, so none is offered twice.
    # Element i's brackets are offered as soon as they are formed; what
    # they add is the next round's frontier.
    start = 0
    while True:
        if space.dim > cap:
            raise DimensionCapExceeded(
                f"closure dimension {space.dim} exceeds cap {cap}")
        if start == space.dim:
            break
        end = space.dim
        mats = space.basis.T.reshape(-1, k, k)
        for i in range(end - 1):
            later = mats[max(i + 1, start):end]
            rows = (mats[i] @ later - later @ mats[i]).reshape(-1, k * k)
            space = extend_span(space, rows)
        start = end
    basis = tuple(0.5 * (b - b.T) for b in space.basis.T.reshape(-1, k, k))
    return LieAlgebraSpan(acting_dim=k, basis=basis, closed=True)


@dataclass(frozen=True)
class RepDecomposition:
    """Fixed set plus invariant factors of a represented algebra."""

    fixed: Subspace
    factors: tuple  # of Subspace, decreasing dimension, each irreducible

    @property
    def rank(self) -> int:
        return self.fixed.dim

    @property
    def factor_dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)


def _sym_frame(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric n x n matrices (trace included)."""
    i, j = np.triu_indices(n)
    frame = np.zeros((len(i), n, n))
    idx = np.arange(len(i))
    frame[idx, i, j] = frame[idx, j, i] = np.where(i == j, 1.0,
                                                   1.0 / np.sqrt(2.0))
    return frame


def _commutant_on_frame(elements: np.ndarray, frame: np.ndarray,
                        tols: Tolerances):
    """Symmetric matrices in the span of frame commuting with every
    element: the kernel of S -> ([e, S] for e in elements), with the
    largest singular value of that map."""
    maps = elements[:, None] @ frame - frame @ elements[:, None]
    _, s, vt, rank = rank_reveal(
        maps.transpose(1, 0, 2, 3).reshape(len(frame), -1).T, tols.rank)
    out = np.einsum("jf,fab->jab", vt[rank:], frame)
    return 0.5 * (out + np.transpose(out, (0, 2, 1))), float(s[0])


def _symmetric_commutant(mats, rng, tols: Tolerances) -> np.ndarray:
    """Orthonormal basis of symmetric matrices commuting with every mat.

    Whatever commutes with x and y commutes with [x, y], so for these
    compact algebras the kernel of S -> ([x, S], [y, S]) for two random
    unit elements x, y of the span is already the whole commutant.  Such
    an S also commutes with x^T x, so it is block diagonal on the
    eigen-clusters of x^T x: the kernel is taken over the frame
    v_c F v_c^T (v_c a cluster's eigenvectors, F the symmetric frame of
    its size), O(K) matrices for a generic x.  Merging two clusters
    (a coarse tols.cluster_gap) only enlarges that frame, so the gap
    errs on the safe side.  A residual check against every mat confirms
    the pair; failing that, every mat is imposed on the same frame.
    """
    stack = np.asarray(mats)
    x, y = (np.einsum("p,pij->ij", c / np.linalg.norm(c), stack)
            for c in [rng.standard_normal(len(stack)) for _ in range(2)])
    dec = sym_eig(x.T @ x, tols)
    frame = np.concatenate([
        v @ _sym_frame(v.shape[1]) @ v.T
        for v in (dec.vectors[:, list(c)] for c in dec.clusters)])
    out, top = _commutant_on_frame(np.stack([x, y]), frame, tols)
    resid = np.linalg.norm(stack[:, None] @ out - out @ stack[:, None],
                           axis=(2, 3))
    if resid.max() > tols.rank * (1.0 + top):
        out, _ = _commutant_on_frame(stack, frame, tols)
    return out


def _schur_factors(cols: np.ndarray, comm, rng,
                   tols: Tolerances) -> list:
    """Split an invariant candidate into factors certified irreducible.

    cols are orthonormal columns of an invariant subspace U, comm a
    basis of the symmetric commutant on the same coordinates.  By
    Schur's criterion U is irreducible exactly when its compressed
    commutant {U^T S U} is the scalars; otherwise the eigen-clusters of
    a random element of it split U into invariant pieces, each tested
    in turn.
    """
    comm = np.asarray(comm)
    d = cols.shape[1]
    comp = cols.T @ comm @ cols
    comp -= np.einsum("pii->p", comp)[:, None, None] * np.eye(d) / d
    _, _, vt, rank = rank_reveal(comp.reshape(len(comm), -1), tols.rank)
    if rank == 0:
        return [cols]
    t = (rng.standard_normal(rank) @ vt[:rank]).reshape(d, d)
    dec = sym_eig(0.5 * (t + t.T), tols)
    if len(dec.clusters) == 1:
        raise DegenerateSpectrum(
            f"invariant candidate of dim {d} has a commutant of rank "
            f"{rank} beyond the scalars, but a random element of it has "
            "a single eigenvalue cluster (cluster_gap too coarse)")
    return [f for c in dec.clusters
            for f in _schur_factors(cols @ dec.vectors[:, list(c)], comm,
                                    rng, tols)]


def invariant_decomposition(span: LieAlgebraSpan, seed: int = 0,
                            tols: Tolerances = DEFAULT_TOLS
                            ) -> RepDecomposition:
    """Split the acting space into fixed set and irreducible factors.

    The fixed set is the common kernel of the basis and the moving
    space its orthogonal complement, both from one rank_reveal of the
    stacked basis.  The moving space is split by Schur's criterion on
    the symmetric commutant of the algebra restricted to it, with
    seeded random elements.  Factor count and dimensions are invariant
    under conjugating the whole algebra by a fixed orthogonal matrix.
    Raises DegenerateSpectrum when a subspace with a non-scalar
    commutant cannot be split at tols.cluster_gap.
    """
    k = span.acting_dim
    stacked = span.matrices().reshape(-1, k)
    _, _, vt, rank = rank_reveal(stacked, tols.rank,
                                 full=stacked.shape[0] < k)
    fixed = _frozen_subspace(vt[rank:].T, tols.rank)
    factors = []
    if rank:
        moving = vt[:rank].T
        rng = np.random.default_rng(seed)
        comm = _symmetric_commutant(moving.T @ span.matrices() @ moving,
                                    rng, tols)
        factors = [_frozen_subspace(moving @ piece, tols.rank)
                   for piece in _schur_factors(np.eye(rank), comm, rng,
                                               tols)]
    return RepDecomposition(
        fixed=fixed, factors=tuple(sorted(factors, key=lambda f: -f.dim)))


@dataclass(frozen=True)
class TransitivityResult:
    transitive: bool
    probe_orbit_dims: tuple
    sphere_dim: int


def is_transitive_on_sphere(span: LieAlgebraSpan, seed: int = 0,
                            tols: Tolerances = DEFAULT_TOLS) -> TransitivityResult:
    """Probe whether the algebra's orbits fill spheres in the acting space.

    For each seeded unit probe u the orbit tangent span {X u} must have
    dimension K - 1; any smaller orbit refutes transitivity.
    """
    k = span.acting_dim
    if k <= 1:
        return TransitivityResult(True, (), max(0, k - 1))
    rng = np.random.default_rng(seed)
    dims = []
    ok = True
    for _ in range(TRANSITIVITY_PROBES):
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        img = np.column_stack([x @ u for x in span.basis]) \
            if span.dim else np.zeros((k, 0))
        d = rank_reveal(img, tols.rank)[3]
        dims.append(d)
        if d != k - 1:
            ok = False
    return TransitivityResult(transitive=ok, probe_orbit_dims=tuple(dims),
                              sphere_dim=k - 1)
