"""Represented Lie algebra structure: closures, splitting, transitivity.

A represented algebra is handled concretely as a span of skew matrices
acting on R^K.  The decomposition machinery splits the action into its
fixed set and irreducible invariant factors, and certifies
irreducibility by probing: the smallest invariant subspace containing
each seeded probe must exhaust its factor.

Factor *candidates* come from eigenspaces of a random symmetric element
of the commutant.  Probe closures alone cannot isolate factors (the
closure of a generic vector is the sum of every factor it touches), so
the commutant supplies the split and the probes certify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, InvalidInput
from .linalg import (
    DEFAULT_TOLS,
    Subspace,
    Tolerances,
    bracket,
    extend_span,
    gram_kernel,
    orthonormal_span,
    sym_eig,
    tolerant_rank,
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
    amb = k * k
    space = orthonormal_span([b.ravel() for b in span.basis],
                             ambient_dim=amb, tol=tol)
    while True:
        if space.dim > cap:
            raise DimensionCapExceeded(
                f"closure dimension {space.dim} exceeds cap {cap}")
        mats = [space.basis[:, j].reshape(k, k) for j in range(space.dim)]
        new = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                new.append(bracket(mats[i], mats[j]).ravel())
        grown = extend_span(space, new) if new else space
        if grown.dim == space.dim:
            space = grown
            break
        space = grown
    if space.dim > cap:
        raise DimensionCapExceeded(
            f"closure dimension {space.dim} exceeds cap {cap}")
    basis = tuple(space.basis[:, j].reshape(k, k) for j in range(space.dim))
    basis = tuple(0.5 * (b - b.T) for b in basis)
    return LieAlgebraSpan(acting_dim=k, basis=basis, closed=True)


@dataclass(frozen=True)
class RepDecomposition:
    """Fixed set plus invariant factors of a represented algebra."""

    fixed: Subspace
    factors: tuple  # of Subspace, decreasing dimension
    irreducible_by_probe: tuple  # of bool, parallel to factors
    probes_per_factor: int

    @property
    def rank(self) -> int:
        return self.fixed.dim

    @property
    def factor_dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)


def _sym_frame(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric n x n matrices (trace included)."""
    frame = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            frame.append(e)
    return np.stack(frame)


def _symmetric_commutant(mats, tols: Tolerances):
    """Orthonormal basis of symmetric matrices commuting with every mat.

    The kernel of the stacked maps S -> [x, S] over the symmetric frame
    equals the kernel of their R factor, which is accumulated one map at
    a time (QR of [R; next block]) so the tall stack is never formed.
    """
    if not mats:
        return [np.eye(0)]
    n = mats[0].shape[0]
    frame = _sym_frame(n)
    r = np.zeros((0, len(frame)))
    for x in mats:
        block = (x @ frame - frame @ x).reshape(len(frame), -1).T
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    ker = gram_kernel(r, tols)
    out = np.einsum("fj,fab->jab", ker.basis, frame)
    return list(0.5 * (out + np.transpose(out, (0, 2, 1))))


def _probe_closure(span: LieAlgebraSpan, start: np.ndarray,
                   within: Subspace, tol: float) -> Subspace:
    """Smallest invariant subspace containing start, kept inside an
    invariant ambient factor to control numerical drift."""
    amb = span.acting_dim
    current = orthonormal_span([within.project(start)], ambient_dim=amb, tol=tol)
    while True:
        new = []
        for j in range(current.dim):
            v = current.basis[:, j]
            for x in span.basis:
                new.append(within.project(x @ v))
        grown = extend_span(current, new)
        if grown.dim == current.dim:
            return grown
        current = grown


def invariant_decomposition(span: LieAlgebraSpan, seed: int = 0,
                            tols: Tolerances = DEFAULT_TOLS,
                            probes: int | None = None) -> RepDecomposition:
    """Split the acting space into fixed set and irreducible factors.

    The fixed set is the common kernel of the basis (equivalently the
    kernel of the Casimir built from the orthonormal basis).  Factors are
    eigenspaces of a seeded random symmetric commutant element, refined
    and certified by probe closures; factor count and dimensions are
    invariant under conjugating the whole algebra by a fixed orthogonal
    matrix.
    """
    k = span.acting_dim
    rng = np.random.default_rng(seed)
    if span.dim == 0:
        fixed = orthonormal_span(list(np.eye(k)), ambient_dim=k, tol=tols.rank)
        return RepDecomposition(fixed=fixed, factors=(),
                                irreducible_by_probe=(), probes_per_factor=0)

    stacked = np.vstack([x for x in span.basis])
    fixed = gram_kernel(stacked, tols)
    moving = fixed.complement_within(
        orthonormal_span(list(np.eye(k)), ambient_dim=k, tol=tols.rank))

    candidates = []
    if moving.dim > 0:
        restricted = [moving.basis.T @ x @ moving.basis for x in span.basis]
        comm = _symmetric_commutant(restricted, tols)
        if len(comm) <= 1:
            candidates.append(moving)
        else:
            coeffs = rng.standard_normal(len(comm))
            s_star = sum(c * s for c, s in zip(coeffs, comm))
            dec = sym_eig(0.5 * (s_star + s_star.T), tols)
            for cluster in dec.clusters:
                cols = dec.vectors[:, list(cluster)]
                ambient_cols = moving.basis @ cols
                candidates.append(orthonormal_span(
                    ambient_cols.T, ambient_dim=k, tol=tols.rank))

    factors = []
    flags = []
    n_probes = 0
    queue = list(candidates)
    while queue:
        cand = queue.pop(0)
        if cand.dim == 0:
            continue
        n_probes = max(8, cand.dim) if probes is None else probes
        split = None
        all_full = True
        for _ in range(n_probes):
            raw = rng.standard_normal(k)
            w = cand.project(raw)
            if float(np.linalg.norm(w)) < 1e-12:
                continue
            closure = _probe_closure(span, w, cand, tols.rank)
            if closure.dim < cand.dim:
                split = closure
                all_full = False
                break
        if split is not None:
            rest = split.complement_within(cand)
            queue.insert(0, split)
            queue.insert(1, rest)
            continue
        factors.append(cand)
        flags.append(all_full)

    order = sorted(range(len(factors)),
                   key=lambda i: (-factors[i].dim, i))
    factors = tuple(factors[i] for i in order)
    flags = tuple(flags[i] for i in order)
    return RepDecomposition(fixed=fixed, factors=factors,
                            irreducible_by_probe=flags,
                            probes_per_factor=n_probes)


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
        d = tolerant_rank(img, tols)
        dims.append(d)
        if d != k - 1:
            ok = False
    return TransitivityResult(transitive=ok, probe_orbit_dims=tuple(dims),
                              sphere_dim=k - 1)
