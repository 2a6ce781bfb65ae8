"""Holonomy tubes: direction choice, spectra, Dupin and caustic checks.

A tube point is a foot point on the orbit plus a parallel translate of a
chosen normal vector, carried by exact transport along subgroup arcs.
Spectra of the tube's radial shape operator are computed twice: through
the eigenvalue transformation s -> s/(1-s) applied to foot data (the
formula route) and by finite differences on an honestly constructed
local patch of the tube (the direct route).  The two must agree; the
direct route is the oracle for the formula.

Every finite difference here (the patch stencils, the Dupin, caustic
and normal-exponential checks) reads one chart, the normal exponential
q(u, w) = g_u (v + xi(u, w)) g_u^T with g_u = exp(sum_i u_i X_i) and xi
the radial vector carried by exact transport and turned in the fiber.
_chart evaluates a whole stack of (u, w), one stacked exponential each
for the arcs, the transports and the fiber rotations.

Patch evaluation never pushes base-point operators forward: every foot
is rebuilt with build_orbit and every fiber direction is re-expressed in
the moving frame, so discretization error shows up in the comparisons
instead of cancelling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateSpectrum, FocalDegeneracy, InvalidInput,
                     InvalidShift, NotApplicable, PatchDegenerate)
from .holonomy import holonomy_algebra
from .liealg import LieAlgebraSpan
from .linalg import (Subspace, cluster_indices, gram_kernel, matrix_exp,
                     orthonormal_span, principal_angle_max, rank_reveal,
                     sym_eig)
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    mean_curvature, shape_operator, shape_operators,
                    traceless_shape_operator)
from .srep import frame_action
from .transport import OrbitCurve, exact_transport_vector

# Spectra on finite-difference patches carry noise around 1e-7, far
# above the dense-arithmetic cluster gap; this one is deliberately
# looser than the default in linalg.
TUBE_CLUSTER_GAP = 1e-3

PATCH_EXTENT = 0.02       # half-width of the tube chart's stencils
SAFETY_MARGIN = 0.2
DUPIN_STEP = 5e-3         # central-difference step of dupin_check
FD_PROBES = 3             # tangent directions of the normal-exp FD check
FD_DELTA = 1e-4           # its central-difference step
EQUIVALENCE_TOL = 1e-6    # hat-value agreement in equivalence_one_check

# 6th-order and 4th-order central first-derivative weights
_W7 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_W5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def choose_tube_direction(M: OrbitSubmanifold) -> np.ndarray:
    """Normal direction whose shape operator has the (2, n-2) spectrum.

    Solves for xi in nu-bar with A_xi having eigenvalue 1/2 on a plane
    and -1/(n-2) on the complement, then scales so the largest shape
    eigenvalue is (1 - SAFETY_MARGIN)/2.  Requires n >= 3 (the multiplicity
    pattern needs both blocks nonempty) and the shape map on nu-bar to
    be a homothecy (invertibility of the solve).
    """
    n = M.dim
    if n < 3:
        raise InvalidInput("two-eigenvalue pattern (2, n-2) needs dim >= 3")
    hom = homothecy_test(M)
    if not hom.is_homothecy:
        raise InvalidInput("shape map on nu-bar is not a homothecy; "
                           "tube direction solve would be ill-posed")
    target = np.zeros((n, n))
    target[0, 0] = target[1, 1] = 0.5
    for i in range(2, n):
        target[i, i] = -1.0 / (n - 2)
    # solve sum_a c_a A_a = target over the nu-bar frame, traceless parts
    cmat = np.einsum("aij,kij->ak", M.nbar_frame, M.normal_frame)
    nbar_ops = np.einsum("ak,kij->aij", cmat, shape_operators(M))
    tr = np.trace(nbar_ops, axis1=1, axis2=2)
    nbar_ops = nbar_ops - tr[:, None, None] * np.eye(n)[None] / n
    kbar = nbar_ops.shape[0]
    lhs = nbar_ops.reshape(kbar, -1).T
    c, *_ = np.linalg.lstsq(lhs, target.ravel(), rcond=None)
    xi = np.einsum("k,kij->ij", c, M.nbar_frame)
    achieved = sym_eig(traceless_shape_operator(M, xi)).values
    want = np.sort(np.diag(target))
    if np.max(np.abs(achieved - want)) > 1e2 * M.tols.eig:
        raise InvalidInput("tube direction solve missed the target spectrum; "
                           "orbit is outside the supported family")
    scale = (1.0 - SAFETY_MARGIN) / (2.0 * np.max(np.abs(achieved)))
    return scale * xi


def seeded_tube_direction(M: OrbitSubmanifold, seed: int) -> np.ndarray:
    """Random nu-bar direction scaled to the same shape-eigenvalue cap.

    Unlike choose_tube_direction this makes no spectrum demand; it just
    draws a generic direction and rescales so the largest traceless
    shape eigenvalue is (1 - SAFETY_MARGIN)/2, keeping the tube radius inside
    the focal-free band.
    """
    if len(M.nbar_frame) == 0:
        raise NotApplicable("the orbit has no sphere-normal direction "
                            "for a tube")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(M.nbar_frame))
    xi = np.einsum("k,kij->ij", c, M.nbar_frame)
    top = float(np.max(np.abs(
        sym_eig(traceless_shape_operator(M, xi), tols=M.tols).values)))
    if top < M.tols.eig:
        raise DegenerateSpectrum("seeded direction has a null shape "
                                 "operator; pick another seed")
    return (1.0 - SAFETY_MARGIN) / (2.0 * top) * xi


@dataclass(frozen=True)
class TubeSpectrum:
    """Clustered radial shape spectrum of a holonomy tube."""

    lambda_hats: tuple        # ((value, multiplicity), ...) descending
    vertical_mult: int        # multiplicity of the fiber eigenvalue, m3
    foot_eigenvalues: np.ndarray
    mean_term: float
    tube_dim: int
    source: str               # "formula" or "patch"
    vertical_value: float = -1.0   # measured mean on a patch with m3 > 0

    def values_with_vertical(self) -> tuple:
        """lambda_hats plus the vertical entry, left out when m3 = 0."""
        if not self.vertical_mult:
            return self.lambda_hats
        return self.lambda_hats + ((self.vertical_value, self.vertical_mult),)

    def multiplicity_total(self) -> int:
        return sum(m for _, m in self.values_with_vertical())


def _foot_data(M: OrbitSubmanifold, xi: np.ndarray,
               curve: OrbitCurve | None):
    """Transport xi to the curve end and rebuild orbit data there.

    Raises InvalidInput, before any other work, when xi does not lie in
    the normal space at the base point.
    """
    if curve is None or curve.total_time == 0.0:
        return M, M.normal_stack(xi)[0]
    if curve.orbit is not M:
        raise InvalidInput("curve is based on a different orbit")
    xi1 = exact_transport_vector(curve, xi)
    return build_orbit(M.rep, curve.endpoint(), tols=M.tols), xi1


def _fiber_directions(foot: OrbitSubmanifold, xi1: np.ndarray,
                      algebra: LieAlgebraSpan):
    """Algebra elements whose action on xi1 spans the fiber tangent.

    The right singular vectors of the fiber images: their images are
    orthogonal, and they do not depend on the basis of the algebra.
    """
    if algebra.dim == 0:
        return np.zeros((0, foot.codim, foot.codim)), 0
    coords = foot.normal_coords(xi1)
    images = np.einsum("pij,j->ip", algebra.matrices(), coords)
    _, _, vt, m3 = rank_reveal(images, foot.tols.rank)
    lams = np.einsum("jp,pkl->jkl", vt[:m3], algebra.matrices())
    return lams, m3


def _foot_spectrum(foot: OrbitSubmanifold, xi: np.ndarray):
    """Foot data of the normal vector xi at foot through s -> s/(1-s).

    Returns (lam_tilde, mu, hats): the traceless shape spectrum of xi,
    the mean-curvature term, and the clustered hat-eigenvalues as
    ((value, multiplicity), ...) descending, or None when a foot
    eigenvalue sits at 1 (a focal point).
    """
    lam_tilde = sym_eig(traceless_shape_operator(foot, xi),
                        tols=foot.tols).values
    mc = mean_curvature(foot)
    mu = float(np.einsum("ij,ij->", xi, mc.ambient)) / foot.dim
    lam = lam_tilde + mu
    if np.min(np.abs(1.0 - lam)) < 1e-8:
        return lam_tilde, mu, None
    hat = np.sort(lam / (1.0 - lam))
    clusters = cluster_indices(hat, TUBE_CLUSTER_GAP)
    return lam_tilde, mu, tuple((float(np.mean(hat[list(c)])), len(c))
                                for c in reversed(clusters))


def _chart(orbit: OrbitSubmanifold, coords: np.ndarray, us: np.ndarray,
           fiber: np.ndarray | None = None):
    """Stacks (q, p, radial) of q = p + radial, p = g v g^T, for an
    (N, n) stack us of foot coordinates: g = exp(sum_i u_i X_i) over the
    m-generators, and radial = g xi g^T where xi has frame coefficients
    exp(fiber) exp(-B_X) coords (no rotation when fiber is None).
    """
    x = np.einsum("ni,ijk->njk", us, orbit.m_generators)
    g = matrix_exp(x)
    c = matrix_exp(-frame_action(x, orbit.normal_frame)) @ coords
    if fiber is not None:
        c = np.einsum("nkl,nl->nk", matrix_exp(fiber), c)
    gt = np.swapaxes(g, 1, 2)
    p = g @ orbit.point @ gt
    radial = g @ np.einsum("nk,kij->nij", c, orbit.normal_frame) @ gt
    return p + radial, p, radial


def _stencil_jacobian(fn, n: int, n_axes: int, extent: float) -> np.ndarray:
    """Central-difference Jacobian of fn at the chart origin.

    The n foot axes take the 7-point stencil, the fiber axes the
    5-point one, each over [-extent, extent].  fn maps an (N, n_axes)
    stack of chart parameters to one row per point; it is called once,
    on the stencil points of every axis.
    """
    points, coef = [], []
    for axis in range(n_axes):
        weights = _W7 if axis < n else _W5
        half = len(weights) // 2
        h = extent / half
        for k in np.flatnonzero(weights):
            points.append(np.zeros(n_axes))
            points[-1][axis] = (k - half) * h
            coef.append(np.zeros(n_axes))
            coef[-1][axis] = weights[k] / h
    return fn(np.array(points)).T @ np.array(coef)


def tube_spectrum_via_formula(M: OrbitSubmanifold, xi: np.ndarray,
                              curve: OrbitCurve | None = None
                              ) -> TubeSpectrum:
    """Tube spectrum from foot data through s -> s/(1-s).

    Foot eigenvalues are the traceless shape spectrum of the transported
    vector plus the mean-curvature term; a foot eigenvalue at 1 is a
    focal point and raises FocalDegeneracy.  The vertical eigenvalue is
    -1 exactly, with the fiber-orbit dimension m3 as multiplicity (no
    vertical entry when m3 = 0).
    """
    foot, xi1 = _foot_data(M, xi, curve)
    lam_tilde, mu, hats = _foot_spectrum(foot, xi1)
    if hats is None:
        raise FocalDegeneracy("foot eigenvalue at 1; tube focalizes")
    _, m3 = _fiber_directions(foot, xi1, holonomy_algebra(foot))
    return TubeSpectrum(
        lambda_hats=hats, vertical_mult=m3,
        foot_eigenvalues=np.sort(lam_tilde)[::-1],
        mean_term=mu, tube_dim=foot.dim + m3, source="formula")


class TubePatch:
    """Local finite-difference chart of a holonomy tube around one point.

    Parameters are n foot coordinates (tangent frame of the foot orbit)
    and m3 fiber coordinates (holonomy directions applied to the radial
    vector).  evaluate() returns honest tube points for a stack of
    parameters; the radial shape operator comes from axis stencils.
    """

    def __init__(self, M: OrbitSubmanifold, xi: np.ndarray,
                 curve: OrbitCurve | None = None):
        foot, xi1 = _foot_data(M, xi, curve)
        self.foot = foot
        self.xi1 = xi1
        self.xi1_coords = foot.normal_coords(xi1)
        self.algebra = holonomy_algebra(foot)
        self.fiber_dirs, self.m3 = _fiber_directions(foot, xi1, self.algebra)
        self.n = foot.dim
        self.n_axes = self.n + self.m3
        self._axis_cache = None
        self._shape_cache = None

    # -- geometry evaluation -------------------------------------------

    def evaluate(self, params: np.ndarray):
        """Tube points for an (N, n_axes) stack of chart parameters, foot
        coordinates first, then fiber coordinates.

        Returns the stacks (q, foot_point, radial) of carrier matrices.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.ndim != 2 or params.shape[1] != self.n_axes:
            raise InvalidInput("chart parameters must be an (N, n_axes) stack")
        fiber = np.einsum("nj,jkl->nkl", params[:, self.n:],
                          self.fiber_dirs) if self.m3 else None
        return _chart(self.foot, self.xi1_coords, params[:, :self.n], fiber)

    def _axis_stencils(self):
        """First derivatives of q and of the radial field along each axis."""
        if self._axis_cache is not None:
            return self._axis_cache
        rep = self.foot.rep

        def q_and_radial(params):
            q, _, radial = self.evaluate(params)
            return np.concatenate([rep.coords(q), rep.coords(radial)], axis=1)

        both = _stencil_jacobian(q_and_radial, self.n, self.n_axes,
                                 PATCH_EXTENT)
        d = rep.carrier_dim
        self._axis_cache = (both[:d], both[d:])
        return self._axis_cache

    # -- radial shape operator -----------------------------------------

    def shape_operator(self):
        """Radial shape operator on an orthonormal tube tangent basis.

        Returns (A, Q, Jc, asym) with A symmetric (n+m3) x (n+m3), Q the
        tube tangent frame in carrier coordinates, Jc the chart Jacobian
        in that frame, asym the pre-symmetrization defect.
        PatchDegenerate if the chart loses rank.
        """
        if self._shape_cache is not None:
            return self._shape_cache
        jac, dnormal = self._axis_stencils()
        q_frame, _, _, rank = rank_reveal(jac, self.foot.tols.rank)
        if rank < self.n_axes:
            raise PatchDegenerate("tube chart Jacobian lost rank; "
                                  "move the base point")
        jc = q_frame.T @ jac
        b = -(q_frame.T @ dnormal)
        a = b @ np.linalg.inv(jc)
        asym = float(np.linalg.norm(a - a.T))
        a = 0.5 * (a + a.T)
        self._shape_cache = (a, q_frame, jc, asym)
        return self._shape_cache

    def _clusters(self):
        """Clustered radial spectrum as (dec, means, vert, horiz): vert is
        the cluster nearest -1, or None when there is no fiber (m3 = 0),
        horiz the others by descending value."""
        a, _, _, _ = self.shape_operator()
        dec = sym_eig(a, tols=replace(self.foot.tols,
                                      cluster_gap=TUBE_CLUSTER_GAP))
        means = dec.cluster_means()
        vert = int(np.argmin(np.abs(means - (-1.0)))) if self.m3 else None
        horiz = sorted((i for i in range(len(means)) if i != vert),
                       key=lambda i: -means[i])
        return dec, means, vert, horiz

    def spectrum(self) -> TubeSpectrum:
        dec, means, vert, horiz = self._clusters()
        sizes = dec.cluster_sizes()
        foot_lam, mu, _ = _foot_spectrum(self.foot, self.xi1)
        return TubeSpectrum(
            lambda_hats=tuple((float(means[i]), int(sizes[i])) for i in horiz),
            vertical_mult=0 if vert is None else int(sizes[vert]),
            foot_eigenvalues=np.sort(foot_lam)[::-1], mean_term=mu,
            tube_dim=self.n_axes, source="patch",
            vertical_value=-1.0 if vert is None else float(means[vert]))

    def eigendistribution(self):
        """Orthonormal basis of the top horizontal eigenvalue cluster.

        Returned in tube tangent frame coordinates (the Q basis of
        shape_operator).
        """
        dec, _, _, horiz = self._clusters()
        if not horiz:
            raise InvalidInput("no such horizontal eigenvalue cluster")
        return dec.vectors[:, list(dec.clusters[horiz[0]])]

    # -- pointwise hat-eigenvalues through foot data -------------------

    def _hat_values(self, p: np.ndarray, radial: np.ndarray):
        """(hat1, hat2) of the radial vector at the displaced foot p.

        The foot data are rebuilt honestly at p and the formula route is
        applied there; its validity at displaced points is exactly what
        the direct-vs-formula check certifies at the base point.
        """
        local = build_orbit(self.foot.rep, p, tols=self.foot.tols)
        _, _, hats = _foot_spectrum(local, radial)
        if hats is None:
            raise FocalDegeneracy("displaced foot eigenvalue at 1")
        return hats[0][0], hats[min(1, len(hats) - 1)][0]


def tube_spectrum_direct(M: OrbitSubmanifold, xi: np.ndarray,
                         curve: OrbitCurve | None = None):
    """Patch-based tube spectrum; returns (TubeSpectrum, TubePatch)."""
    patch = TubePatch(M, xi, curve=curve)
    return patch.spectrum(), patch


def spectra_agree(formula: TubeSpectrum, direct: TubeSpectrum) -> float:
    """Max gap between matched clustered eigenvalues of the two routes.

    Raises InvalidInput on multiplicity mismatch; returns the max value
    gap including the vertical cluster.
    """
    fa = formula.values_with_vertical()
    da = direct.values_with_vertical()
    if tuple(m for _, m in fa) != tuple(m for _, m in da):
        raise InvalidInput(
            f"multiplicity mismatch: formula {fa} vs direct {da}")
    return float(max(abs(a - b) for (a, _), (b, _) in zip(fa, da)))


@dataclass
class DupinResult:
    """Directional-derivative bounds of the hat-eigenvalues along E1."""

    max_hat1_derivative: float
    max_hat2_derivative: float
    directions_tested: int
    step: float


def dupin_check(M: OrbitSubmanifold, xi: np.ndarray,
                patch: TubePatch | None = None) -> DupinResult:
    """Constancy of hat1 (and hat2) along the top eigendistribution.

    Central differences of the hat-eigenvalues along each E1 frame
    direction on the tube patch (by default the patch at xi on M);
    requires multiplicity >= 2.
    """
    if patch is None:
        patch = TubePatch(M, xi)
    spec = patch.spectrum()
    if spec.lambda_hats[0][1] < 2:
        raise NotApplicable("top hat-eigenvalue is simple; no integral "
                            "manifold to test along")
    e1 = patch.eigendistribution()
    _, _, jc, _ = patch.shape_operator()
    vels = (np.linalg.inv(jc) @ e1).T        # one chart velocity per row
    nrms = np.linalg.norm(vels @ jc.T, axis=1)
    _, p, radial = patch.evaluate(DUPIN_STEP * np.concatenate([vels, -vels]))
    hats = np.array([patch._hat_values(pt, rv) for pt, rv in zip(p, radial)])
    k = len(vels)
    slopes = np.abs(hats[:k] - hats[k:]) / (2.0 * DUPIN_STEP * nrms[:, None])
    worst1, worst2 = np.max(slopes, axis=0)
    return DupinResult(max_hat1_derivative=float(worst1),
                       max_hat2_derivative=float(worst2),
                       directions_tested=k, step=DUPIN_STEP)


@dataclass
class CausticResult:
    """Rank data of the caustic map on a tube patch."""

    kernel_dim: int
    kernel_angle_to_e1: float
    shift: float
    shifted_spectrum_positive: bool


def caustic_rank_check(M: OrbitSubmanifold, xi: np.ndarray,
                       patch: TubePatch | None = None,
                       shift: float | None = None) -> CausticResult:
    """Kernel of the caustic map q + (hat1 + c)^{-1} (radial - c q).

    The shift c replaces the radial normal by radial - c q (q is also
    normal; its shape operator is -Id), moving every hat-eigenvalue up
    by c so the top one is bounded away from zero.  The differential is
    taken by stencils over the patch (by default the patch at xi on M);
    the kernel must be the top eigendistribution.
    """
    if patch is None:
        patch = TubePatch(M, xi)
    hats = [v for v, _ in patch.spectrum().lambda_hats]
    if patch.m3:
        # the vertical eigenvalue is -1 exactly; the patch only measures it
        hats.append(-1.0)
    if shift is None:
        shift = max(0.0, -min(hats)) + 1.0
    shifted = [h + shift for h in hats]
    if min(np.abs(shifted)) < 0.1:
        raise InvalidShift("shifted top eigenvalue too close to zero; "
                           "pick a larger shift")
    rep = patch.foot.rep

    def rho(params):
        q, p, radial = patch.evaluate(params)
        hat1 = np.array([patch._hat_values(pt, rv)[0]
                         for pt, rv in zip(p, radial)])
        zeta = radial - shift * q
        return rep.coords(q + (1.0 / (hat1 + shift))[:, None, None] * zeta)

    jac = _stencil_jacobian(rho, patch.n, patch.n_axes, PATCH_EXTENT)

    # kernel in chart parameters, then into the tube tangent frame
    tols = patch.foot.tols
    kernel = gram_kernel(jac, tols)
    _, _, jc, _ = patch.shape_operator()
    positive = all(s > 0 for s in shifted)
    if kernel.dim == 0:
        return CausticResult(kernel_dim=0, kernel_angle_to_e1=np.pi / 2,
                             shift=float(shift),
                             shifted_spectrum_positive=positive)
    tangent_kernel = orthonormal_span(
        list((jc @ kernel.basis).T), ambient_dim=patch.n_axes,
        tol=tols.rank)
    e1_cols = patch.eigendistribution()
    e1 = Subspace(ambient_dim=patch.n_axes, basis=e1_cols, tol=tols.rank)
    angle = principal_angle_max(tangent_kernel, e1)
    return CausticResult(kernel_dim=int(kernel.dim),
                         kernel_angle_to_e1=float(angle), shift=float(shift),
                         shifted_spectrum_positive=positive)


def normal_exponential_differential(M: OrbitSubmanifold,
                                    eta: np.ndarray) -> np.ndarray:
    """Horizontal differential I - A_eta of the normal exponential."""
    return np.eye(M.dim) - shape_operator(M, eta)


def normal_exponential_fd_residual(M: OrbitSubmanifold, eta: np.ndarray,
                                   seed: int = 0) -> float:
    """Cross-validate I - A_eta against finite differences.

    Moves the base point along seeded tangent directions, carries eta as
    a parallel normal field, and differentiates p + eta(p); the result
    must match (I - A_eta) applied to the direction.
    """
    expected = normal_exponential_differential(M, eta)
    coords = M.normal_coords(M.normal_stack(eta)[0])
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((FD_PROBES, M.dim))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    q, _, _ = _chart(M, coords, FD_DELTA * np.concatenate([c, -c]))
    fd = (q[:FD_PROBES] - q[FD_PROBES:]) / (2.0 * FD_DELTA)
    predicted = np.einsum("pi,ijk->pjk", c @ expected.T, M.tangent_frame)
    return float(np.max(np.linalg.norm(fd - predicted, axis=(1, 2))))


def equivalence_one_check(spectra) -> bool:
    """Literal biconditional of the eigenvalue equivalence over pairs.

    For every pair of tube spectra: hat1 values agree within
    EQUIVALENCE_TOL iff hat2 values agree within it.
    """
    hats = [(s.lambda_hats[0][0], s.lambda_hats[1][0]) for s in spectra]
    for i in range(len(hats)):
        for j in range(i + 1, len(hats)):
            first = abs(hats[i][0] - hats[j][0]) <= EQUIVALENCE_TOL
            second = abs(hats[i][1] - hats[j][1]) <= EQUIVALENCE_TOL
            if first != second:
                return False
    return True
