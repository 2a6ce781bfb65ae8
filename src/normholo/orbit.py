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
[X_i, v] = e_i, free of stabilizer components, and an orthonormal
basis of the stabilizer {X : [X, v] = 0}.  The m-generators lift tangent
coordinates to curve generators, and the second fundamental form is
their symmetrized action read between the frames,
alpha(e_i, e_j) = P_normal(([X_i, e_j] + [X_j, e_i]) / 2), which does
not depend on the choice of representatives.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .kernels import jacobi_eigh
from .linalg import (DEFAULT_TOLS, Tolerances, _row_norms, check_symmetric,
                     orthonormal_span)
from .srep import SymmetricPairRep, frame_action

SPHERE_TOL = 1e-8       # sphere residual of a minimal-in-sphere orbit
GRAM_TOL = 1e-8         # relative Gram residual of a homothecy
ISOTROPY_PROBES = 32    # tangent directions isotropy_defect samples


class OrbitSubmanifold:
    """The orbit through a base point with its frames fixed (build_orbit);
    _cache keeps the derived data computed from them."""

    __slots__ = ("rep", "point", "dim", "tangent_frame", "normal_frame",
                 "nbar_frame", "m_generators", "stabilizer", "tols",
                 "_cache")

    def __init__(self, rep: SymmetricPairRep,
                 point: np.ndarray,           # carrier matrix, the base point
                 dim: int,
                 tangent_frame: np.ndarray,   # (n, R, R)
                 normal_frame: np.ndarray,    # (K, R, R)
                 nbar_frame: np.ndarray,      # (K-1, R, R), point nonzero
                 m_generators: np.ndarray,    # (n, R, R): [X_i, v] = e_i
                 stabilizer: np.ndarray,      # (G-n, R, R): [X, v] = 0
                 tols: Tolerances = DEFAULT_TOLS):
        self.rep = rep
        self.point = point
        self.dim = dim
        self.tangent_frame = tangent_frame
        self.normal_frame = normal_frame
        self.nbar_frame = nbar_frame
        self.m_generators = m_generators
        self.stabilizer = stabilizer
        self.tols = tols
        self._cache = {}

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
        _normal_coords(self.normal_frame, xis, self.tols.rank)
        return xis

    def normal_coords(self, mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,kij->k", np.asarray(mat, float),
                         self.normal_frame)

    def normal_vector(self, nu_coords: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", np.asarray(nu_coords, float),
                         self.normal_frame)


def _normal_coords(frames: np.ndarray, xis: np.ndarray, tol: float):
    """(M, K) coefficients of each xis[m] on one (K, R, R) normal frame,
    or on frames[m]; InvalidInput unless each is finite and in the span
    to the relative tolerance tol."""
    flat = xis.reshape(len(xis), xis.shape[1] * xis.shape[2])
    if not np.isfinite(flat).all():
        raise InvalidInput("normal vector needs finite entries")
    fr = frames.reshape(*frames.shape[:-2], -1)
    coords = (fr @ flat[:, :, None])[:, :, 0]
    res = flat - (coords[:, None, :] @ fr)[:, 0]
    if (_row_norms(res) > tol * (1 + _row_norms(flat))).any():
        raise InvalidInput("vector does not lie in the normal space "
                           "at the base point")
    return coords


def _orbit_frames(rep: SymmetricPairRep, u, s, vt, n: int):
    """m-generators, tangent frames and normal frames of a stack of orbits
    of dimension n from their tangent SVDs (see build_orbit)."""
    frame = rep.carrier_frame
    return (np.einsum("pmg,gij->pmij", vt[:, :n] / s[:, :n, None],
                      rep.generators),
            np.einsum("pdn,dij->pnij", u[:, :, :n], frame),
            np.einsum("pdk,dij->pkij", u[:, :, n:], frame))


def orbit_dims(rep: SymmetricPairRep, points: np.ndarray,
               tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """(N,) dimension of the orbit through each point of an (N, R, R)
    stack, as build_orbit measures it: the ranks of one stacked tangent
    SVD (SymmetricPairRep.tangent_svds), with no frames formed.  Raises
    InvalidInput wherever build_orbit would; a tiny point is rescaled to
    unit norm first, so a caller that must tell the origin apart tests
    it before."""
    return rep.tangent_svds(points, tols)[4]


def build_orbit(rep: SymmetricPairRep, point: np.ndarray,
                tols: Tolerances = DEFAULT_TOLS) -> OrbitSubmanifold:
    """Assemble the orbit through a carrier point with all frames fixed.

    One SVD of the tangent-image map (SymmetricPairRep.tangent_svds,
    which also normalizes the point) gives everything: its kept left
    singular vectors are the tangent frame, the rest the normal frame,
    V[:n]^T / sigma the generator combinations whose images are the
    tangent frame (free of stabilizer components), formed once as the
    m-generators, and V[n:]^T the stabilizer.  Tangent and normal
    spaces are complementary by construction.  The frames come from the
    core that traceless_spectra_at runs on whole stacks, here on a
    stack of one.
    """
    v, u, s, vt, ranks = rep.tangent_svds(
        np.asarray(point, dtype=float)[None], tols)
    n = int(ranks[0])
    m_generators, tangent_frame, normal_frame = (
        a[0] for a in _orbit_frames(rep, u, s, vt, n))
    stabilizer = np.einsum("kg,gij->kij", vt[0, n:], rep.generators)

    normal = u[0, :, n:]
    vc = rep.coords(v[0])
    vdir = vc / np.linalg.norm(vc)
    nbar_cols = normal - np.outer(vdir, vdir @ normal)
    normal_bar = orthonormal_span(nbar_cols.T, ambient_dim=rep.carrier_dim,
                                  tol=tols.rank)
    nbar_frame = np.einsum("dk,dij->kij", normal_bar.basis, rep.carrier_frame)

    return OrbitSubmanifold(
        rep=rep, point=v[0], dim=n, tangent_frame=tangent_frame,
        normal_frame=normal_frame, nbar_frame=nbar_frame,
        m_generators=m_generators, stabilizer=stabilizer, tols=tols)


def traceless_spectra_at(rep: SymmetricPairRep, points: np.ndarray,
                         xis: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Traceless shape spectrum of xis[i] at the orbit rebuilt through
    points[i], and its mean term <xi_i, H>/n = tr(A_xi)/n.

    build_orbit and traceless_spectrum at every point of the (N, R, R)
    stacks, as one tangent SVD and one _traceless_spectra call per group
    of points of equal orbit dimension.  Returns a list of N ascending
    spectra and an (N,) array of mean terms; raises InvalidInput
    wherever build_orbit would, or when an xi is not finite or not
    normal at its point.
    """
    v, u, s, vt, ranks = rep.tangent_svds(points, tols)
    xis = np.asarray(xis, dtype=float)
    if xis.shape != v.shape:
        raise InvalidInput(f"normal vector stack shape {xis.shape}, "
                           f"expected {v.shape}")
    spectra, means = [None] * len(v), np.empty(len(v))
    # sorted(set()), not np.unique: numpy 2.x's unique imports numpy.ma
    for n in sorted(set(ranks.tolist())):
        at = np.flatnonzero(ranks == n)
        m_gens, tangent, normal = _orbit_frames(rep, u[at], s[at], vt[at], n)
        w, means[at] = _traceless_spectra(_alpha(m_gens, normal, tangent),
                                          normal, xis[at], tols)
        for p, row in zip(at, w):
            spectra[p] = row
    return spectra, means


def traceless_spectrum(m: OrbitSubmanifold, xi: np.ndarray):
    """(lam, mu): the ascending traceless shape spectrum of the normal
    vector xi at m and its mean term tr(A_xi)/n, by the routine that
    traceless_spectra_at runs per group, on the orbit's cached alpha."""
    w, means = _traceless_spectra(second_fundamental_form(m)[None],
                                  m.normal_frame, m.normal_stack(xi), m.tols)
    return w[0], float(means[0])


def _alpha(m_gens: np.ndarray, normal: np.ndarray,
           tangent: np.ndarray) -> np.ndarray:
    """alpha[..., i, j, a] = <alpha(e_i, e_j), xi_a> of one orbit or a
    stack: the symmetrization in (i, j) of f = <xi_a, [X_i, e_j]>."""
    f = np.swapaxes(frame_action(m_gens, normal, tangent), -1, -2)
    return 0.5 * (f + np.swapaxes(f, -3, -2))


def _traceless_spectra(alpha: np.ndarray, normal: np.ndarray,
                       xis: np.ndarray, tols: Tolerances):
    """(w, means): the ascending traceless shape spectrum of each xis[p]
    on a (P, n, n, K) alpha stack over normal (one frame or a stack) and
    its mean term tr(A_xi)/n; one normal-space, one symmetric check."""
    nu = _normal_coords(normal, xis, tols.rank)
    a = np.einsum("pk,pijk->pij", nu, alpha)
    n = a.shape[-1]
    means = np.trace(a, axis1=1, axis2=2) / n
    traceless = a - means[:, None, None] * np.eye(n)
    w, _ = jacobi_eigh(check_symmetric(traceless, tols.sym))
    return w, means


def second_fundamental_form(m: OrbitSubmanifold) -> np.ndarray:
    """alpha[i, j, a] = <alpha(e_i, e_j), xi_a> over the orbit frames."""
    if "alpha" in m._cache:
        return m._cache["alpha"]
    alpha = _alpha(m.m_generators, m.normal_frame, m.tangent_frame)
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


def sphere_normal_shape_operators(m: OrbitSubmanifold) -> np.ndarray:
    """(K-1, n, n) stack: the shape operator of each sphere-normal frame
    vector, from one normal-space check and one product (kept in the
    orbit's cache)."""
    if "nbar_shape_ops" not in m._cache:
        nu = np.einsum("aij,kij->ak", m.normal_stack(m.nbar_frame),
                       m.normal_frame)
        ops = np.einsum("ak,kij->aij", nu, shape_operators(m))
        ops.flags.writeable = False
        m._cache["nbar_shape_ops"] = ops
    return m._cache["nbar_shape_ops"]


class MeanCurvatureResult(NamedTuple):
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


class HomothecyResult(NamedTuple):
    is_homothecy: bool
    ratio: float               # beta with <A~_xi, A~_eta> = beta^2 <xi, eta>
    gram_residual: float       # relative deviation of the Gram matrix


def homothecy_test(m: OrbitSubmanifold) -> HomothecyResult:
    """Check that xi -> A~_xi is a homothecy on the sphere-normal space."""
    kbar = len(m.nbar_frame)
    if kbar == 0:
        return HomothecyResult(False, 0.0, np.inf)
    ops = sphere_normal_shape_operators(m)
    tr = np.trace(ops, axis1=1, axis2=2)
    ops = ops - (tr / m.dim)[:, None, None] * np.eye(m.dim)
    gram = np.einsum("aij,bij->ab", ops, ops)
    beta2 = float(np.trace(gram)) / kbar
    if beta2 <= 0.0:
        return HomothecyResult(False, 0.0, np.inf)
    resid = float(np.linalg.norm(gram - beta2 * np.eye(kbar))) / beta2
    return HomothecyResult(is_homothecy=resid <= GRAM_TOL,
                           ratio=float(np.sqrt(beta2)),
                           gram_residual=resid)


class IsotropyDefectResult(NamedTuple):
    defect: float
    min_norm: float
    max_norm: float
    probes: int


def isotropy_defect(m: OrbitSubmanifold,
                    seed: int = 0) -> IsotropyDefectResult:
    """Spread of |alpha(X, X)| over seeded unit tangent directions.

    Zero spread is necessary for extrinsic homogeneity of the pointwise
    normal geometry; product orbits show a strictly positive defect.
    The probes are one seeded (ISOTROPY_PROBES, n) draw, contracted with
    alpha in one einsum.
    """
    alpha = second_fundamental_form(m)
    x = np.random.default_rng(seed).standard_normal((ISOTROPY_PROBES, m.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    norms = np.linalg.norm(np.einsum("ijk,pi,pj->pk", alpha, x, x), axis=1)
    lo, hi = float(norms.min()), float(norms.max())
    return IsotropyDefectResult(defect=hi - lo, min_norm=lo, max_norm=hi,
                                probes=ISOTROPY_PROBES)
