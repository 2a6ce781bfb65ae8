"""Orbit submanifolds and their extrinsic invariants.

An orbit is built from a representation and a base point; everything
else (second fundamental form, shape operators, mean curvature,
homothecy of the traceless shape map) is derived data computed in the
orbit's fixed frames:

* tangent frame: orthonormal basis of {[X, v] : X in the acting algebra}
* normal frame: orthonormal basis of the orthogonal complement, which
  is {x in carrier : [x, v] = 0}
* sphere-normal frame: the normal frame with the base-point direction
  removed (orbits of a norm-preserving action lie in a sphere, so the
  position vector is always normal)

The second fundamental form uses the symmetrized second-order action
alpha(X.v, Y.v) = P_normal(([X,[Y,v]] + [Y,[X,v]]) / 2), which does not
depend on the choice of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import (
    DEFAULT_TOLS,
    Subspace,
    Tolerances,
    bracket,
    orthonormal_span,
    rank_reveal,
)
from .srep import SymmetricPairRep


@dataclass
class OrbitSubmanifold:
    rep: SymmetricPairRep
    point: np.ndarray            # carrier matrix, the base point
    coords: np.ndarray           # carrier coordinates of the point
    dim: int
    tangent: Subspace
    normal: Subspace
    normal_bar: Subspace
    tangent_frame: np.ndarray    # (n, R, R)
    normal_frame: np.ndarray     # (K, R, R)
    nbar_frame: np.ndarray       # (K-1, R, R) when the point is nonzero
    m_basis: np.ndarray          # (n, G) generator coefficients
    tols: Tolerances = DEFAULT_TOLS
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def codim(self) -> int:
        return self.normal.dim

    def generator(self, i: int) -> np.ndarray:
        return self.rep.generator_matrix(self.m_basis[i])

    def tangent_coords(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nij->n", np.asarray(mat, float),
                         self.tangent_frame)

    def normal_coords(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,kij->k", np.asarray(mat, float),
                         self.normal_frame)

    def nbar_coords(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,kij->k", np.asarray(mat, float),
                         self.nbar_frame)

    def normal_vector(self, nu_coords: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", np.asarray(nu_coords, float),
                         self.normal_frame)

    def nbar_vector(self, coords: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", np.asarray(coords, float),
                         self.nbar_frame)


def build_orbit(rep: SymmetricPairRep, point: np.ndarray,
                normalize: bool = True,
                tols: Tolerances = DEFAULT_TOLS) -> OrbitSubmanifold:
    """Assemble the orbit through a carrier point with all frames fixed.

    One SVD of the tangent-image map (generator coefficients -> carrier)
    gives everything: its kept left singular vectors are the tangent
    frame, the rest the normal frame, and V[:n]^T / sigma the generator
    combinations whose images are the tangent frame (free of stabilizer
    components).  Tangent and normal spaces are complementary by
    construction.
    """
    v = rep.validate_carrier(point, tols)
    nrm = float(np.linalg.norm(v))
    if nrm < tols.rank:
        raise InvalidInput("base point must be nonzero")
    if normalize:
        v = v / nrm

    vc = rep.coords(v)
    d = rep.carrier_dim

    u, s, vt, n = rank_reveal(rep.tangent_images(v).T, tols.rank, full=True)
    if n == 0:
        raise InvalidInput("base point is fixed by the whole group")
    m_basis = vt[:n] / s[:n, None]
    tangent = Subspace(ambient_dim=d, basis=u[:, :n], tol=tols.rank)
    normal = Subspace(ambient_dim=d, basis=u[:, n:], tol=tols.rank)

    vdir = vc / np.linalg.norm(vc)
    nbar_cols = normal.basis - np.outer(vdir, vdir @ normal.basis)
    normal_bar = orthonormal_span(nbar_cols.T, ambient_dim=d, tol=tols.rank)

    frame = rep.carrier_frame
    tangent_frame = np.einsum("dn,dij->nij", tangent.basis, frame)
    normal_frame = np.einsum("dk,dij->kij", normal.basis, frame)
    nbar_frame = np.einsum("dk,dij->kij", normal_bar.basis, frame)

    return OrbitSubmanifold(
        rep=rep, point=v, coords=vc, dim=n,
        tangent=tangent, normal=normal, normal_bar=normal_bar,
        tangent_frame=tangent_frame, normal_frame=normal_frame,
        nbar_frame=nbar_frame, m_basis=m_basis, tols=tols)


def second_fundamental_form(m: OrbitSubmanifold) -> np.ndarray:
    """alpha[i, j, a] = <alpha(e_i, e_j), xi_a> over the orbit frames."""
    if "alpha" in m._cache:
        return m._cache["alpha"]
    n = m.dim
    gens = [m.generator(i) for i in range(n)]
    alpha = np.zeros((n, n, m.normal.dim))
    for i in range(n):
        for j in range(i, n):
            s = 0.5 * (bracket(gens[i], m.tangent_frame[j])
                       + bracket(gens[j], m.tangent_frame[i]))
            row = m.normal_coords(s)
            alpha[i, j] = row
            alpha[j, i] = row
    alpha.flags.writeable = False
    m._cache["alpha"] = alpha
    return alpha


def shape_operators(m: OrbitSubmanifold) -> np.ndarray:
    """(K, n, n) stack: the shape operator of each normal-frame vector."""
    if "shape_ops" in m._cache:
        return m._cache["shape_ops"]
    alpha = second_fundamental_form(m)
    ops = np.ascontiguousarray(np.transpose(alpha, (2, 0, 1)))
    ops.flags.writeable = False
    m._cache["shape_ops"] = ops
    return ops


def shape_operator(m: OrbitSubmanifold, xi) -> np.ndarray:
    """Shape operator of an arbitrary normal vector (matrix or carrier
    coordinates)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = m.rep.matrix(xi)
    nu = m.normal_coords(xi)
    resid = float(np.linalg.norm(xi - m.normal_vector(nu)))
    if resid > m.tols.rank * (1.0 + float(np.linalg.norm(xi))):
        raise InvalidInput("vector is not normal to the orbit")
    return np.einsum("k,kij->ij", nu, shape_operators(m))


def traceless_shape(m: OrbitSubmanifold) -> np.ndarray:
    """(K, n, n): trace-free parts of the normal-frame shape operators."""
    ops = shape_operators(m)
    n = m.dim
    tr = np.trace(ops, axis1=1, axis2=2)
    return ops - tr[:, None, None] * np.eye(n)[None] / n


def traceless_shape_operator(m: OrbitSubmanifold, xi) -> np.ndarray:
    a = shape_operator(m, xi)
    return a - (np.trace(a) / m.dim) * np.eye(m.dim)


@dataclass(frozen=True)
class MeanCurvatureResult:
    nu_coords: np.ndarray      # mean curvature in the normal frame
    ambient: np.ndarray        # carrier matrix
    radial_component: float    # <H, v/|v|>
    sphere_residual: float     # |P_nbar H| / |H|
    minimal_in_sphere: bool


def mean_curvature(m: OrbitSubmanifold,
                   tol: float = 1e-8) -> MeanCurvatureResult:
    alpha = second_fundamental_form(m)
    h = np.einsum("iik->k", alpha)
    h_mat = m.normal_vector(h)
    h_norm = float(np.linalg.norm(h))
    vdir = m.point / np.linalg.norm(m.point)
    radial = float(np.sum(h_mat * vdir))
    if h_norm == 0.0:
        return MeanCurvatureResult(h, h_mat, 0.0, 0.0, True)
    tang_part = h_mat - radial * vdir
    resid = float(np.linalg.norm(tang_part)) / h_norm
    return MeanCurvatureResult(nu_coords=h, ambient=h_mat,
                               radial_component=radial,
                               sphere_residual=resid,
                               minimal_in_sphere=resid <= tol)


@dataclass(frozen=True)
class HomothecyResult:
    is_homothecy: bool
    ratio: float               # beta with <A~_xi, A~_eta> = beta^2 <xi, eta>
    gram_residual: float       # relative deviation of the Gram matrix


def homothecy_test(m: OrbitSubmanifold, tol: float = 1e-8) -> HomothecyResult:
    """Check that xi -> A~_xi is a homothecy on the sphere-normal space."""
    kbar = m.normal_bar.dim
    if kbar == 0:
        return HomothecyResult(False, 0.0, np.inf)
    ops = []
    for a in range(kbar):
        ops.append(traceless_shape_operator(m, m.nbar_frame[a]))
    ops = np.stack(ops)
    gram = np.einsum("aij,bij->ab", ops, ops)
    beta2 = float(np.trace(gram)) / kbar
    if beta2 <= 0.0:
        return HomothecyResult(False, 0.0, np.inf)
    resid = float(np.linalg.norm(gram - beta2 * np.eye(kbar))) / beta2
    return HomothecyResult(is_homothecy=resid <= tol,
                           ratio=float(np.sqrt(beta2)),
                           gram_residual=resid)


@dataclass(frozen=True)
class IsotropyDefectResult:
    defect: float
    min_norm: float
    max_norm: float
    probes: int


def isotropy_defect(m: OrbitSubmanifold, probes: int = 32,
                    seed: int = 0) -> IsotropyDefectResult:
    """Spread of |alpha(X, X)| over seeded unit tangent directions.

    Zero spread is necessary for extrinsic homogeneity of the pointwise
    normal geometry; product orbits show a strictly positive defect.
    """
    alpha = second_fundamental_form(m)
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(probes):
        x = rng.standard_normal(m.dim)
        x /= np.linalg.norm(x)
        w = np.einsum("ijk,i,j->k", alpha, x, x)
        nrm = float(np.linalg.norm(w))
        lo = min(lo, nrm)
        hi = max(hi, nrm)
    return IsotropyDefectResult(defect=hi - lo, min_norm=lo, max_norm=hi,
                                probes=probes)


def alpha_eval(m: OrbitSubmanifold, x_mat: np.ndarray,
               y_mat: np.ndarray) -> np.ndarray:
    """Second fundamental form on explicit tangent vectors (matrices),
    returned as an ambient carrier matrix."""
    imgs = m.rep.tangent_images(m.point)     # (G, D)
    xc = m.rep.coords(np.asarray(x_mat, float))
    yc = m.rep.coords(np.asarray(y_mat, float))
    cx, *_ = np.linalg.lstsq(imgs.T, xc, rcond=None)
    cy, *_ = np.linalg.lstsq(imgs.T, yc, rcond=None)
    gx = m.rep.generator_matrix(cx)
    gy = m.rep.generator_matrix(cy)
    s = 0.5 * (bracket(gx, bracket(gy, m.point))
               + bracket(gy, bracket(gx, m.point)))
    return m.normal_vector(m.normal_coords(s))
