"""Holonomy tubes: direction choice, spectra, Dupin and caustic checks.

A tube point is a foot point on the orbit plus a parallel translate of a
chosen normal vector.  Spectra of the tube's radial shape operator are
computed twice: through the eigenvalue transformation s -> s/(1-s)
applied to foot data (the formula route) and by finite differences on an
honestly constructed local patch of the tube (the direct route).  The
two must agree; the direct route is the oracle for the formula.

Patch evaluation never pushes base-point operators forward: every foot
is rebuilt with build_orbit and every fiber direction is re-expressed in
the moving frame, so discretization error shows up in the comparisons
instead of cancelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSpectrum, FocalDegeneracy, InvalidInput,
                     InvalidShift, NotApplicable, PatchDegenerate)
from .holonomy import holonomy_algebra
from .liealg import LieAlgebraSpan
from .linalg import (DEFAULT_TOLS, Subspace, Tolerances, gram_kernel,
                     matrix_exp, orthonormal_span, principal_angle_max,
                     rank_reveal, sym_eig)
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    mean_curvature, shape_operator, shape_operators,
                    traceless_shape_operator)
from .transport import OrbitCurve, parallel_transport_normal

# Spectra on finite-difference patches carry noise around 1e-7, far
# above the dense-arithmetic cluster gap; this one is deliberately
# looser than the default in linalg.
TUBE_CLUSTER_GAP = 1e-3

TANGENT_STENCIL_POINTS = 7
FIBER_STENCIL_POINTS = 5
PATCH_EXTENT = 0.02
PATCH_TRANSPORT_STEP = 0.025
SAFETY_MARGIN = 0.2

# 6th-order and 4th-order central first-derivative weights
_W7 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_W5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def choose_tube_direction(M: OrbitSubmanifold, safety: float = SAFETY_MARGIN,
                          tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Normal direction whose shape operator has the (2, n-2) spectrum.

    Solves for xi in nu-bar with A_xi having eigenvalue 1/2 on a plane
    and -1/(n-2) on the complement, then scales so the largest shape
    eigenvalue is (1 - safety)/2.  Requires n >= 3 (the multiplicity
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
    if np.max(np.abs(achieved - want)) > 1e2 * tols.eig:
        raise InvalidInput("tube direction solve missed the target spectrum; "
                           "orbit is outside the supported family")
    scale = (1.0 - safety) / (2.0 * np.max(np.abs(achieved)))
    return scale * xi


def seeded_tube_direction(M: OrbitSubmanifold, seed: int,
                          safety: float = SAFETY_MARGIN,
                          tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Random nu-bar direction scaled to the same shape-eigenvalue cap.

    Unlike choose_tube_direction this makes no spectrum demand; it just
    draws a generic direction and rescales so the largest traceless
    shape eigenvalue is (1 - safety)/2, keeping the tube radius inside
    the focal-free band.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(M.normal_bar.dim)
    xi = np.einsum("k,kij->ij", c, M.nbar_frame)
    top = float(np.max(np.abs(
        sym_eig(traceless_shape_operator(M, xi), tols=tols).values)))
    if top < tols.eig:
        raise DegenerateSpectrum("seeded direction has a null shape "
                                 "operator; pick another seed")
    return (1.0 - safety) / (2.0 * top) * xi


@dataclass(frozen=True)
class TubeSpectrum:
    """Clustered radial shape spectrum of a holonomy tube."""

    lambda_hats: tuple        # ((value, multiplicity), ...) descending
    vertical_mult: int        # multiplicity of the fiber eigenvalue
    foot_eigenvalues: np.ndarray
    mean_term: float
    tube_dim: int
    source: str               # "formula" or "patch"
    vertical_value: float = -1.0   # formula: exact; patch: measured mean

    @property
    def horizontal(self) -> tuple:
        return self.lambda_hats

    def values_with_vertical(self) -> tuple:
        return self.lambda_hats + ((self.vertical_value, self.vertical_mult),)

    def multiplicity_total(self) -> int:
        return sum(m for _, m in self.values_with_vertical())


def _foot_data(M: OrbitSubmanifold, xi: np.ndarray,
               curve: OrbitCurve | None, step: float | None,
               tols: Tolerances):
    """Transport xi to the curve end and rebuild orbit data there."""
    if curve is None or curve.total_time == 0.0:
        return M, np.asarray(xi, dtype=np.float64), np.eye(M.rep.total_size)
    if curve.orbit is not M:
        raise InvalidInput("curve is based on a different orbit")
    res = parallel_transport_normal(curve, xi, step=step)
    g = res.g_end
    foot = build_orbit(M.rep, g @ M.point @ g.T, tols=tols)
    return foot, res.xi_end, g


def _fiber_directions(foot: OrbitSubmanifold, xi1: np.ndarray,
                      algebra: LieAlgebraSpan, tols: Tolerances):
    """Algebra elements whose action on xi1 spans the fiber tangent.

    The right singular vectors of the fiber images: their images are
    orthogonal, and they do not depend on the basis of the algebra.
    """
    if algebra.dim == 0:
        return np.zeros((0, foot.codim, foot.codim)), 0
    coords = foot.normal_coords(xi1)
    images = np.einsum("pij,j->ip", algebra.matrices(), coords)
    _, _, vt, m3 = rank_reveal(images, tols.rank)
    lams = np.einsum("jp,pkl->jkl", vt[:m3], algebra.matrices())
    return lams, m3


def tube_spectrum_via_formula(M: OrbitSubmanifold, xi: np.ndarray,
                              curve: OrbitCurve | None = None,
                              step: float | None = None,
                              cluster_gap: float = TUBE_CLUSTER_GAP,
                              tols: Tolerances = DEFAULT_TOLS) -> TubeSpectrum:
    """Tube spectrum from foot data through s -> s/(1-s).

    Foot eigenvalues are the traceless shape spectrum of the transported
    vector plus the mean-curvature term; a foot eigenvalue at 1 is a
    focal point and raises FocalDegeneracy.  The vertical eigenvalue is
    -1 exactly, with the fiber-orbit dimension as multiplicity.
    """
    foot, xi1, _ = _foot_data(M, xi, curve, step, tols)
    lam_tilde = sym_eig(traceless_shape_operator(foot, xi1),
                        tols=tols.with_cluster_gap(cluster_gap)).values
    mc = mean_curvature(foot)
    mu = float(np.einsum("ij,ij->", xi1, mc.ambient)) / foot.dim
    lam = lam_tilde + mu
    if np.min(np.abs(1.0 - lam)) < 1e-8:
        raise FocalDegeneracy("foot eigenvalue at 1; tube focalizes")
    hats = lam / (1.0 - lam)
    dec = sym_eig(np.diag(hats), tols=tols.with_cluster_gap(cluster_gap))
    clusters = sorted(zip(dec.cluster_means(), dec.cluster_sizes()),
                      key=lambda t: -t[0])
    algebra = holonomy_algebra(foot, tols=tols)
    _, m3 = _fiber_directions(foot, xi1, algebra, tols)
    return TubeSpectrum(
        lambda_hats=tuple((float(v), int(m)) for v, m in clusters),
        vertical_mult=m3, foot_eigenvalues=np.sort(lam_tilde)[::-1],
        mean_term=mu, tube_dim=foot.dim + m3, source="formula")


class TubePatch:
    """Local finite-difference chart of a holonomy tube around one point.

    Parameters are n foot coordinates (tangent frame of the foot orbit)
    and m3 fiber coordinates (holonomy directions applied to the radial
    vector).  evaluate() returns honest tube points; the radial shape
    operator comes from axis stencils.
    """

    def __init__(self, M: OrbitSubmanifold, xi: np.ndarray,
                 curve: OrbitCurve | None = None,
                 step: float | None = None,
                 extent: float = PATCH_EXTENT,
                 tols: Tolerances = DEFAULT_TOLS):
        self.tols = tols
        self.extent = float(extent)
        foot, xi1, g = _foot_data(M, xi, curve, step, tols)
        self.orbit = M
        self.foot = foot
        self.xi1 = xi1
        self.g_end = g
        self.algebra = holonomy_algebra(foot, tols=tols)
        self.fiber_dirs, self.m3 = _fiber_directions(foot, xi1,
                                                     self.algebra, tols)
        self.n = foot.dim
        self.n_axes = self.n + self.m3
        self.q0 = foot.point + xi1
        self._axis_cache = None
        self._shape_cache = None

    # -- geometry evaluation -------------------------------------------

    def evaluate(self, params: np.ndarray):
        """Tube point for chart parameters (foot coords + fiber coords).

        Returns (q, foot_point, radial) as carrier matrices.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_axes,):
            raise InvalidInput("parameter length mismatch")
        u, w = params[:self.n], params[self.n:]
        foot = self.foot
        x = np.einsum("i,ig,gjk->jk", u, foot.m_basis, foot.rep.generators)
        gu = matrix_exp(x)
        p = gu @ foot.point @ gu.T
        if np.linalg.norm(u) > 0.0:
            seg = OrbitCurve(orbit=foot, segments=((x, 1.0),),
                             step=PATCH_TRANSPORT_STEP)
            tau = parallel_transport_normal(seg, self.xi1,
                                            samples_per_segment=1).xi_end
        else:
            tau = self.xi1
        # moving normal frame at p and the fiber rotation in its coords
        frames = np.einsum("ip,kpq,jq->kij", gu, foot.normal_frame, gu)
        coords = np.einsum("kij,ij->k", frames, tau)
        if self.m3:
            h = matrix_exp(np.einsum("j,jkl->kl", w, self.fiber_dirs))
            coords = h @ coords
        radial = np.einsum("k,kij->ij", coords, frames)
        return p + radial, p, radial

    def _axis_stencils(self):
        """First derivatives of q and of the radial field along each axis."""
        if self._axis_cache is not None:
            return self._axis_cache
        rep = self.foot.rep
        d = rep.carrier_dim
        jac = np.zeros((d, self.n_axes))
        dnormal = np.zeros((d, self.n_axes))
        for axis in range(self.n_axes):
            if axis < self.n:
                npts, weights = TANGENT_STENCIL_POINTS, _W7
            else:
                npts, weights = FIBER_STENCIL_POINTS, _W5
            half = npts // 2
            h = self.extent / half
            dq = np.zeros(d)
            dr = np.zeros(d)
            for k in range(npts):
                off = k - half
                if weights[k] == 0.0:
                    continue
                params = np.zeros(self.n_axes)
                params[axis] = off * h
                q, _, radial = self.evaluate(params)
                dq += weights[k] * rep.coords(q)
                dr += weights[k] * rep.coords(radial)
            jac[:, axis] = dq / h
            dnormal[:, axis] = dr / h
        self._axis_cache = (jac, dnormal)
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
        q_frame, _, _, rank = rank_reveal(jac, self.tols.rank)
        if rank < self.n_axes:
            raise PatchDegenerate("tube chart Jacobian lost rank; "
                                  "shrink the extent or move the base point")
        jc = q_frame.T @ jac
        b = -(q_frame.T @ dnormal)
        a = b @ np.linalg.inv(jc)
        asym = float(np.linalg.norm(a - a.T))
        a = 0.5 * (a + a.T)
        self._shape_cache = (a, q_frame, jc, asym)
        return self._shape_cache

    def spectrum(self, cluster_gap: float = TUBE_CLUSTER_GAP) -> TubeSpectrum:
        a, _, _, _ = self.shape_operator()
        dec = sym_eig(a, tols=self.tols.with_cluster_gap(cluster_gap))
        means = dec.cluster_means()
        sizes = dec.cluster_sizes()
        vert = int(np.argmin(np.abs(means - (-1.0))))
        horiz = [(float(means[i]), int(sizes[i])) for i in range(len(means))
                 if i != vert]
        horiz.sort(key=lambda t: -t[0])
        foot_lam = sym_eig(traceless_shape_operator(self.foot, self.xi1),
                           tols=self.tols).values
        mc = mean_curvature(self.foot)
        mu = float(np.einsum("ij,ij->", self.xi1, mc.ambient)) / self.foot.dim
        return TubeSpectrum(
            lambda_hats=tuple(horiz), vertical_mult=int(sizes[vert]),
            foot_eigenvalues=np.sort(foot_lam)[::-1], mean_term=mu,
            tube_dim=self.n_axes, source="patch",
            vertical_value=float(means[vert]))

    def eigendistribution(self, which: int = 0,
                          cluster_gap: float = TUBE_CLUSTER_GAP):
        """Orthonormal basis of the which-th descending horizontal cluster.

        Returned in tube tangent frame coordinates (the Q basis of
        shape_operator).
        """
        a, _, _, _ = self.shape_operator()
        dec = sym_eig(a, tols=self.tols.with_cluster_gap(cluster_gap))
        means = dec.cluster_means()
        vert = int(np.argmin(np.abs(means - (-1.0))))
        order = sorted((i for i in range(len(means)) if i != vert),
                       key=lambda i: -means[i])
        if which >= len(order):
            raise InvalidInput("no such horizontal eigenvalue cluster")
        cols = list(dec.clusters[order[which]])
        return dec.vectors[:, cols]

    # -- pointwise hat-eigenvalues through foot data -------------------

    def hat_values_at(self, params: np.ndarray,
                      cluster_gap: float = TUBE_CLUSTER_GAP):
        """(hat1, hat2) at a patch point, from honestly rebuilt foot data.

        The formula route is applied at the displaced foot; its validity
        at displaced points is exactly what the direct-vs-formula check
        certifies at the base point.
        """
        _, p, radial = self.evaluate(params)
        local = build_orbit(self.foot.rep, p, tols=self.tols)
        lam_tilde = sym_eig(traceless_shape_operator(local, radial),
                            tols=self.tols.with_cluster_gap(cluster_gap)).values
        mc = mean_curvature(local)
        mu = float(np.einsum("ij,ij->", radial, mc.ambient)) / local.dim
        lam = lam_tilde + mu
        if np.min(np.abs(1.0 - lam)) < 1e-8:
            raise FocalDegeneracy("displaced foot eigenvalue at 1")
        hats = lam / (1.0 - lam)
        dec = sym_eig(np.diag(hats), tols=self.tols.with_cluster_gap(cluster_gap))
        means = sorted(dec.cluster_means(), reverse=True)
        if len(means) < 2:
            return float(means[0]), float(means[0])
        return float(means[0]), float(means[1])


def tube_spectrum_direct(M: OrbitSubmanifold, xi: np.ndarray,
                         curve: OrbitCurve | None = None,
                         step: float | None = None,
                         extent: float = PATCH_EXTENT,
                         tols: Tolerances = DEFAULT_TOLS):
    """Patch-based tube spectrum; returns (TubeSpectrum, TubePatch)."""
    patch = TubePatch(M, xi, curve=curve, step=step, extent=extent, tols=tols)
    return patch.spectrum(), patch


def spectra_agree(formula: TubeSpectrum, direct: TubeSpectrum,
                  tol: float = 1e-4) -> float:
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
                curve: OrbitCurve | None = None,
                patch: TubePatch | None = None,
                fd_step: float = 5e-3,
                tols: Tolerances = DEFAULT_TOLS) -> DupinResult:
    """Constancy of hat1 (and hat2) along the top eigendistribution.

    Central differences of the hat-eigenvalues along each E1 frame
    direction on the tube patch; requires multiplicity >= 2.
    """
    if patch is None:
        patch = TubePatch(M, xi, curve=curve, tols=tols)
    spec = patch.spectrum()
    if spec.lambda_hats[0][1] < 2:
        raise NotApplicable("top hat-eigenvalue is simple; no integral "
                            "manifold to test along")
    e1 = patch.eigendistribution(0)
    _, _, jc, _ = patch.shape_operator()
    jc_inv = np.linalg.inv(jc)
    worst1 = 0.0
    worst2 = 0.0
    for col in range(e1.shape[1]):
        vel = jc_inv @ e1[:, col]
        nrm = np.linalg.norm(jc @ vel)
        plus = patch.hat_values_at(fd_step * vel)
        minus = patch.hat_values_at(-fd_step * vel)
        d1 = abs(plus[0] - minus[0]) / (2.0 * fd_step * nrm)
        d2 = abs(plus[1] - minus[1]) / (2.0 * fd_step * nrm)
        worst1 = max(worst1, float(d1))
        worst2 = max(worst2, float(d2))
    return DupinResult(max_hat1_derivative=worst1,
                       max_hat2_derivative=worst2,
                       directions_tested=e1.shape[1], step=fd_step)


@dataclass
class CausticResult:
    """Rank data of the caustic map on a tube patch."""

    kernel_dim: int
    kernel_angle_to_e1: float
    shift: float
    shifted_spectrum_positive: bool


def caustic_rank_check(M: OrbitSubmanifold, xi: np.ndarray,
                       curve: OrbitCurve | None = None,
                       patch: TubePatch | None = None,
                       shift: float | None = None,
                       tols: Tolerances = DEFAULT_TOLS) -> CausticResult:
    """Kernel of the caustic map q + (hat1 + c)^{-1} (radial - c q).

    The shift c replaces the radial normal by radial - c q (q is also
    normal; its shape operator is -Id), moving every hat-eigenvalue up
    by c so the top one is bounded away from zero.  The differential is
    taken by stencils over the patch; the kernel must be the top
    eigendistribution.
    """
    if patch is None:
        patch = TubePatch(M, xi, curve=curve, tols=tols)
    # the vertical eigenvalue is -1 exactly; the patch only measures it
    hats = [v for v, _ in patch.spectrum().lambda_hats] + [-1.0]
    if shift is None:
        shift = max(0.0, -min(hats)) + 1.0
    shifted = [h + shift for h in hats]
    if min(np.abs(shifted)) < 0.1:
        raise InvalidShift("shifted top eigenvalue too close to zero; "
                           "pick a larger shift")
    rep = patch.foot.rep
    d = rep.carrier_dim

    def rho(params):
        q, _, radial = patch.evaluate(params)
        hat1, _ = patch.hat_values_at(params)
        zeta = radial - shift * q
        return rep.coords(q + (1.0 / (hat1 + shift)) * zeta)

    jac = np.zeros((d, patch.n_axes))
    for axis in range(patch.n_axes):
        if axis < patch.n:
            npts, weights = TANGENT_STENCIL_POINTS, _W7
        else:
            npts, weights = FIBER_STENCIL_POINTS, _W5
        half = npts // 2
        h = patch.extent / half
        acc = np.zeros(d)
        for k in range(npts):
            if weights[k] == 0.0:
                continue
            params = np.zeros(patch.n_axes)
            params[axis] = (k - half) * h
            acc += weights[k] * rho(params)
        jac[:, axis] = acc / h

    # kernel in chart parameters, then into the tube tangent frame
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
    e1_cols = patch.eigendistribution(0)
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
                                   probes: int = 3, delta: float = 1e-4,
                                   seed: int = 0,
                                   tols: Tolerances = DEFAULT_TOLS) -> float:
    """Cross-validate I - A_eta against finite differences.

    Moves the base point along seeded tangent directions, carries eta as
    a parallel normal field, and differentiates p + eta(p); the result
    must match (I - A_eta) applied to the direction.
    """
    expected = normal_exponential_differential(M, eta)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        c = rng.standard_normal(M.dim)
        c /= np.linalg.norm(c)
        x = np.einsum("i,ig,gjk->jk", c, M.m_basis, M.rep.generators)
        vals = []
        for sgn in (1.0, -1.0):
            seg = OrbitCurve(orbit=M, segments=((sgn * x, delta),),
                             step=delta / 8)
            res = parallel_transport_normal(seg, eta, samples_per_segment=1)
            g = res.g_end
            vals.append(g @ M.point @ g.T + res.xi_end)
        fd = (vals[0] - vals[1]) / (2.0 * delta)
        predicted = np.einsum("i,ijk->jk", expected @ c, M.tangent_frame)
        worst = max(worst, float(np.linalg.norm(fd - predicted)))
    return worst


def equivalence_one_check(spectra, tol: float = 1e-6) -> bool:
    """Literal biconditional of the eigenvalue equivalence over pairs.

    For every pair of tube spectra: hat1 values agree within tol iff
    hat2 values agree within tol.
    """
    hats = [(s.lambda_hats[0][0], s.lambda_hats[1][0]) for s in spectra]
    for i in range(len(hats)):
        for j in range(i + 1, len(hats)):
            first = abs(hats[i][0] - hats[j][0]) <= tol
            second = abs(hats[i][1] - hats[j][1]) <= tol
            if first != second:
                return False
    return True
