"""Represented Lie algebra structure: closures, splitting, transitivity.

A represented algebra is handled concretely as a span of skew matrices
acting on R^K.  The decomposition machinery splits the action into its
fixed set and irreducible invariant factors.

Factor *candidates* come from eigenspaces of a random symmetric element
of the commutant, computed from a random generating pair of the algebra
and confirmed against the full basis.  Each candidate is certified by
Schur's criterion: an invariant subspace of an orthogonal action is
irreducible exactly when the commutant compressed to it is the scalars.
A candidate that fails is split by a random element of its compressed
commutant and the pieces are tested again.  On an irreducible action
the commutant is one-dimensional and the certificate costs nothing.

Bracket closures run through one frontier routine: each round offers
only the brackets of the directions the previous round added with the
whole span, never the whole span again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DimensionCapExceeded, InvalidInput
from .linalg import (
    DEFAULT_TOLS,
    Subspace,
    Tolerances,
    extend_span,
    gram_kernel,
    orthonormal_span,
    rank_reveal,
    sym_eig,
)


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
        mats = [b.T @ x @ b for x in self.basis]
        return skew_span(mats, acting_dim=space.dim)


def _check_skew(mats, acting_dim=None):
    out = []
    for x in mats:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise InvalidInput("algebra elements must be square matrices")
        if acting_dim is None:
            acting_dim = x.shape[0]
        if x.shape[0] != acting_dim:
            raise InvalidInput("algebra elements act on inconsistent spaces")
        scale = 1.0 + float(np.linalg.norm(x))
        if float(np.linalg.norm(x + x.T)) > 1e-8 * scale:
            raise InvalidInput("algebra elements must be skew-symmetric")
        out.append(0.5 * (x - x.T))
    return out, acting_dim


def skew_span(mats, acting_dim: int | None = None,
              tol: float = DEFAULT_TOLS.rank) -> LieAlgebraSpan:
    """Orthonormalize a list of skew matrices into a span."""
    mats, acting_dim = _check_skew(mats, acting_dim)
    if acting_dim is None:
        raise InvalidInput("empty span needs an explicit acting dimension")
    vecs = [m.ravel() for m in mats]
    space = orthonormal_span(vecs, ambient_dim=acting_dim * acting_dim, tol=tol)
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

    space = orthonormal_span([b.ravel() for b in span.basis],
                             ambient_dim=k * k, tol=tol)
    # each round offers only the brackets of the frontier (the columns
    # the previous round added) with the whole span: every pair i < j
    # whose later element is on the frontier, so none is offered twice
    start = 0
    while True:
        if space.dim > cap:
            raise DimensionCapExceeded(
                f"closure dimension {space.dim} exceeds cap {cap}")
        if start == space.dim:
            break
        mats = space.basis.T.reshape(-1, k, k)
        rows = []
        for i in range(len(mats)):
            later = mats[max(i + 1, start):]
            rows.append((mats[i] @ later - later @ mats[i]).reshape(-1, k * k))
        start, space = space.dim, extend_span(space, np.vstack(rows))
    basis = tuple(0.5 * (b - b.T) for b in space.basis.T.reshape(-1, k, k))
    return LieAlgebraSpan(acting_dim=k, basis=basis, closed=True)


@dataclass(frozen=True)
class RepDecomposition:
    """Fixed set plus invariant factors of a represented algebra."""

    fixed: Subspace
    factors: tuple  # of Subspace, decreasing dimension
    # of bool, parallel to factors: Schur's verdict (the compressed
    # symmetric commutant is the scalars); the name is kept for the
    # report key irreducibleByProbe
    irreducible_by_probe: tuple

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


def _symmetric_commutant(mats, rng, tols: Tolerances):
    """Orthonormal basis of symmetric matrices commuting with every mat.

    Whatever commutes with x and y commutes with [x, y], so for these
    compact algebras the kernel of S -> [x, S] over two random unit
    elements x of the span is already the whole commutant.  A residual
    check against every mat confirms it; failing that, one more random
    element is imposed, up to len(mats) of them.  The kernel of the
    stacked maps equals the kernel of their R factor, accumulated one
    map at a time (QR of [R; next block]) so the stack is never formed.
    """
    if not mats:
        return [np.eye(0)]
    stack = np.stack(mats)
    frame = _sym_frame(stack.shape[1])
    r = np.zeros((0, len(frame)))
    for count in range(1, len(mats) + 1):
        c = rng.standard_normal(len(mats))
        x = np.einsum("p,pij->ij", c / np.linalg.norm(c), stack)
        block = (x @ frame - frame @ x).reshape(len(frame), -1).T
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
        if count < min(2, len(mats)):
            continue
        _, s, vt, rank = rank_reveal(r, tols.rank)
        out = np.einsum("jf,fab->jab", vt[rank:], frame)
        out = 0.5 * (out + np.transpose(out, (0, 2, 1)))
        resid = max(float(np.linalg.norm(y @ out - out @ y)) for y in stack)
        if resid <= tols.rank * (1.0 + s[0]):
            break
    return list(out)


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

    The fixed set is the common kernel of the basis (equivalently the
    kernel of the Casimir built from the orthonormal basis).  Factor
    candidates are eigenspaces of a seeded random symmetric commutant
    element; each is certified, or split further, by Schur's criterion
    on its compressed commutant.  Factor count and dimensions are
    invariant under conjugating the whole algebra by a fixed orthogonal
    matrix.  Raises DegenerateSpectrum when a candidate with a
    non-scalar commutant cannot be split at tols.cluster_gap.
    """
    k = span.acting_dim
    rng = np.random.default_rng(seed)
    if span.dim == 0:
        fixed = orthonormal_span(list(np.eye(k)), ambient_dim=k, tol=tols.rank)
        return RepDecomposition(fixed=fixed, factors=(),
                                irreducible_by_probe=())

    stacked = np.vstack([x for x in span.basis])
    fixed = gram_kernel(stacked, tols)
    moving = fixed.complement_within(
        orthonormal_span(list(np.eye(k)), ambient_dim=k, tol=tols.rank))

    factors = []
    if moving.dim > 0:
        restricted = [moving.basis.T @ x @ moving.basis for x in span.basis]
        comm = _symmetric_commutant(restricted, rng, tols)
        if len(comm) <= 1:
            # the commutant is the scalars: the moving space is irreducible
            factors.append(moving)
        else:
            coeffs = rng.standard_normal(len(comm))
            s_star = sum(c * s for c, s in zip(coeffs, comm))
            dec = sym_eig(0.5 * (s_star + s_star.T), tols)
            for cluster in dec.clusters:
                cols = dec.vectors[:, list(cluster)]
                for piece in _schur_factors(cols, comm, rng, tols):
                    factors.append(orthonormal_span(
                        (moving.basis @ piece).T, ambient_dim=k,
                        tol=tols.rank))

    factors = tuple(sorted(factors, key=lambda f: -f.dim))
    return RepDecomposition(fixed=fixed, factors=factors,
                            irreducible_by_probe=(True,) * len(factors))


@dataclass(frozen=True)
class TransitivityResult:
    transitive: bool
    probe_orbit_dims: tuple
    sphere_dim: int


def is_transitive_on_sphere(span: LieAlgebraSpan, probes: int = 8,
                            seed: int = 0,
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
    for _ in range(probes):
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
