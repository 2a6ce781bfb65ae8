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

The orbit also keeps its m-generators: the so(r) elements X_i with
[X_i, v] = e_i, free of stabilizer components.  They lift tangent
coordinates to curve generators, and the second fundamental form is
their symmetrized action read between the frames,
alpha(e_i, e_j) = P_normal(([X_i, e_j] + [X_j, e_i]) / 2), which does
not depend on the choice of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import DEFAULT_TOLS, Tolerances, orthonormal_span, rank_reveal
from .srep import SymmetricPairRep, frame_action

SPHERE_TOL = 1e-8       # sphere residual of a minimal-in-sphere orbit
GRAM_TOL = 1e-8         # relative Gram residual of a homothecy
ISOTROPY_PROBES = 32    # tangent directions isotropy_defect samples


@dataclass
class OrbitSubmanifold:
    rep: SymmetricPairRep
    point: np.ndarray            # carrier matrix, the base point
    dim: int
    tangent_frame: np.ndarray    # (n, R, R)
    normal_frame: np.ndarray     # (K, R, R)
    nbar_frame: np.ndarray       # (K-1, R, R) when the point is nonzero
    m_generators: np.ndarray     # (n, R, R): [X_i, v] = e_i
    tols: Tolerances = DEFAULT_TOLS
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def codim(self) -> int:
        return len(self.normal_frame)

    def normal_stack(self, xis: np.ndarray) -> np.ndarray:
        """The (M, R, R) stack of xis, each checked to lie in nu_v."""
        xis = np.asarray(xis, dtype=np.float64)
        if xis.ndim == 2:
            xis = xis[None, :, :]
        r = self.rep.total_size
        if xis.shape[1:] != (r, r):
            raise InvalidInput(f"normal vector shape {xis.shape[1:]}, "
                               f"expected {(r, r)}")
        flat = xis.reshape(len(xis), -1)
        # negated so that NaN, for which every comparison is False, fails
        if not np.max(np.abs(flat), initial=0.0) <= np.finfo(float).max:
            raise InvalidInput("normal vector needs finite entries")
        frame = self.normal_frame.reshape(self.codim, -1)
        for x, res in zip(flat, flat - flat @ frame.T @ frame):
            if np.linalg.norm(res) > self.tols.rank * (1 + np.linalg.norm(x)):
                raise InvalidInput("vector does not lie in the normal space "
                                   "at the base point")
        return xis

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
                tols: Tolerances = DEFAULT_TOLS) -> OrbitSubmanifold:
    """Assemble the orbit through a carrier point with all frames fixed.

    One SVD of the tangent-image map (generator coefficients -> carrier)
    gives everything: its kept left singular vectors are the tangent
    frame, the rest the normal frame, and V[:n]^T / sigma the generator
    combinations whose images are the tangent frame (free of stabilizer
    components), formed once as the m-generators.  Tangent and normal
    spaces are complementary by construction.  The point is normalized;
    a finite nonzero point whose norm overflows or is under the rank
    threshold is first divided by its largest entry, which normalizing
    makes no difference to.
    """
    point = np.asarray(point, dtype=float)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(point))
    if (not tols.rank <= nrm < np.inf and np.all(np.isfinite(point))
            and np.any(point)):
        point = point / np.abs(point).max()
    v = rep.validate_carrier(point, tols)
    nrm = float(np.linalg.norm(v))
    if nrm < tols.rank:
        raise InvalidInput("base point must be nonzero")
    v = v / nrm

    vc = rep.coords(v)
    d = rep.carrier_dim

    images = frame_action(rep.generators, rep.carrier_frame, v[None])
    u, s, vt, n = rank_reveal(images[..., 0].T, tols.rank, full=True)
    if n == 0:
        raise InvalidInput("base point is fixed by the whole group")
    m_generators = np.einsum("mg,gij->mij", vt[:n] / s[:n, None],
                             rep.generators)
    normal = u[:, n:]

    vdir = vc / np.linalg.norm(vc)
    nbar_cols = normal - np.outer(vdir, vdir @ normal)
    normal_bar = orthonormal_span(nbar_cols.T, ambient_dim=d, tol=tols.rank)

    frame = rep.carrier_frame
    tangent_frame = np.einsum("dn,dij->nij", u[:, :n], frame)
    normal_frame = np.einsum("dk,dij->kij", normal, frame)
    nbar_frame = np.einsum("dk,dij->kij", normal_bar.basis, frame)

    return OrbitSubmanifold(
        rep=rep, point=v, dim=n, tangent_frame=tangent_frame,
        normal_frame=normal_frame, nbar_frame=nbar_frame,
        m_generators=m_generators, tols=tols)


def second_fundamental_form(m: OrbitSubmanifold) -> np.ndarray:
    """alpha[i, j, a] = <alpha(e_i, e_j), xi_a> over the orbit frames."""
    if "alpha" in m._cache:
        return m._cache["alpha"]
    # f[i, j, a] = <xi_a, [X_i, e_j]>; alpha is its symmetrization in (i, j)
    f = frame_action(m.m_generators, m.normal_frame,
                     m.tangent_frame).transpose(0, 2, 1)
    alpha = 0.5 * (f + f.transpose(1, 0, 2))
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
    nu = m.normal_coords(m.normal_stack(xi)[0])
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


def mean_curvature(m: OrbitSubmanifold) -> MeanCurvatureResult:
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
                               minimal_in_sphere=resid <= SPHERE_TOL)


@dataclass(frozen=True)
class HomothecyResult:
    is_homothecy: bool
    ratio: float               # beta with <A~_xi, A~_eta> = beta^2 <xi, eta>
    gram_residual: float       # relative deviation of the Gram matrix


def homothecy_test(m: OrbitSubmanifold) -> HomothecyResult:
    """Check that xi -> A~_xi is a homothecy on the sphere-normal space."""
    kbar = len(m.nbar_frame)
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
    return HomothecyResult(is_homothecy=resid <= GRAM_TOL,
                           ratio=float(np.sqrt(beta2)),
                           gram_residual=resid)


@dataclass(frozen=True)
class IsotropyDefectResult:
    defect: float
    min_norm: float
    max_norm: float
    probes: int


def isotropy_defect(m: OrbitSubmanifold,
                    seed: int = 0) -> IsotropyDefectResult:
    """Spread of |alpha(X, X)| over seeded unit tangent directions.

    Zero spread is necessary for extrinsic homogeneity of the pointwise
    normal geometry; product orbits show a strictly positive defect.
    """
    alpha = second_fundamental_form(m)
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(ISOTROPY_PROBES):
        x = rng.standard_normal(m.dim)
        x /= np.linalg.norm(x)
        w = np.einsum("ijk,i,j->k", alpha, x, x)
        nrm = float(np.linalg.norm(w))
        lo = min(lo, nrm)
        hi = max(hi, nrm)
    return IsotropyDefectResult(defect=hi - lo, min_norm=lo, max_norm=hi,
                                probes=ISOTROPY_PROBES)

