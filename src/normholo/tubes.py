"""Holonomy tubes: direction choice, spectra, Dupin and caustic checks.

A tube point is a foot point on the orbit plus a parallel translate of a
chosen normal vector, carried by exact transport along subgroup arcs.
Spectra of the tube's radial shape operator are computed twice: through
the eigenvalue transformation s -> s/(1-s) applied to foot data (the
formula route) and by finite differences on an honestly constructed
local patch of the tube (the direct route).  The two must agree; the
direct route is the oracle for the formula.  A TubePatch builds the
foot, its holonomy algebra and the fiber directions once; both routes
read them, and every traceless shape spectrum (the foot's, the
displaced feet's, the direction scaling's) comes from orbit's one
spectrum routine.

Every finite difference here (the patch shape operator, the Dupin,
caustic and normal-exponential checks) reads one evaluation of one
chart, the normal exponential q(u, w) = g_u (v + xi(u, w)) g_u^T with
g_u = exp(sum_i u_i X_i) and xi the radial vector carried by exact
transport and turned in the fiber.  TubePatch evaluates it once, on the
central-difference stencil points of every chart axis, with one stacked
exponential each for the arcs, the transports and the fiber rotations.

Patch evaluation never pushes base-point operators forward: every foot
is rebuilt (the displaced feet of the stencil as one stack, by
traceless_spectra_at, when a Dupin or caustic check first reads them)
and every fiber direction is re-expressed in the moving frame, so
discretization error shows up in the comparisons instead of cancelling.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateSpectrum, FocalDegeneracy, InvalidInput,
                     NotApplicable, PatchDegenerate)
from .holonomy import holonomy_algebra
from .linalg import (Subspace, gram_kernel, matrix_exp, orthonormal_span,
                     principal_angle_max, rank_reveal, sym_eig)
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    shape_operator, sphere_normal_shape_operators,
                    traceless_spectra_at, traceless_spectrum)
from .srep import frame_action
from .transport import OrbitCurve, exact_transport_vector

# Spectra on finite-difference patches carry noise around 1e-7, far
# above the dense-arithmetic cluster gap; this one is deliberately
# looser than the default in linalg.
TUBE_CLUSTER_GAP = 1e-3

PATCH_EXTENT = 0.02       # half-width of the tube chart's stencils
SAFETY_MARGIN = 0.2

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
    target = np.diag([0.5, 0.5] + [-1.0 / (n - 2)] * (n - 2))
    # least-squares solve of sum_a c_a A_a = target over the nu-bar
    # frame, traceless parts, on the singular triples rank_reveal keeps
    nbar_ops = sphere_normal_shape_operators(M)
    tr = np.trace(nbar_ops, axis1=1, axis2=2)
    nbar_ops = nbar_ops - tr[:, None, None] * np.eye(n)[None] / n
    u, s, vt, rank = rank_reveal(nbar_ops.reshape(len(nbar_ops), -1).T,
                                 M.tols.rank)
    c = vt[:rank].T @ ((u[:, :rank].T @ target.ravel()) / s[:rank])
    xi = np.einsum("k,kij->ij", c, M.nbar_frame)
    achieved = traceless_spectrum(M, xi)[0]
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
    top = float(np.max(np.abs(traceless_spectrum(M, xi)[0])))
    if top < M.tols.eig:
        raise DegenerateSpectrum("seeded direction has a null shape "
                                 "operator; pick another seed")
    return (1.0 - SAFETY_MARGIN) / (2.0 * top) * xi


class TubeSpectrum(NamedTuple):
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


def _hat_clusters(lams, where: str):
    """(means, sizes, ends): the clustered hat-eigenvalues s/(1-s) of
    rows of foot eigenvalues of one orbit dimension, ascending row after
    row, row i's before ends[i]; FocalDegeneracy when any eigenvalue
    sits at 1 (a focal point)."""
    lam = np.array(lams)
    if np.any(np.abs(1.0 - lam) < 1e-8):
        raise FocalDegeneracy(f"{where} eigenvalue at 1; tube focalizes")
    hat = np.sort(lam / (1.0 - lam), axis=1)
    # one sort, one gap mask: a cluster starts at each row and at each gap
    # over the threshold; bincount sums in order, as np.mean below 8 values
    ids = np.cumsum(~(np.diff(hat, axis=1, prepend=-np.inf)
                      <= TUBE_CLUSTER_GAP)) - 1
    sizes = np.bincount(ids)
    return (np.bincount(ids, weights=hat.ravel()) / sizes, sizes,
            ids[hat.shape[1] - 1::hat.shape[1]] + 1)


class TubePatch:
    """A holonomy tube at one point: its foot and its local chart.

    The constructor transports xi to the curve end (InvalidInput first
    when xi is not normal at the base point), rebuilds the foot orbit
    there and finds its holonomy algebra and fiber directions, once for
    both routes.  Chart parameters are n foot coordinates (tangent frame
    of the foot orbit) and m3 fiber coordinates (holonomy directions
    applied to the radial vector).  Everything else is computed when
    first read, at most once.
    """

    def __init__(self, M: OrbitSubmanifold, xi: np.ndarray,
                 curve: OrbitCurve | None = None):
        if curve is None or curve.total_time == 0.0:
            foot, xi1 = M, M.normal_stack(xi)[0]
        elif curve.orbit is not M:
            raise InvalidInput("curve is based on a different orbit")
        else:
            xi1 = exact_transport_vector(curve, xi)
            foot = build_orbit(M.rep, curve.endpoint(), tols=M.tols)
        self.foot, self.xi1 = foot, xi1
        self.xi1_coords = foot.normal_coords(xi1)
        self.algebra = holonomy_algebra(foot)
        # fiber directions: the right singular vectors of the fiber images,
        # orthogonal images whatever the basis of the algebra
        basis = self.algebra.basis
        _, _, vt, self.m3 = rank_reveal(
            np.einsum("pij,j->ip", basis, self.xi1_coords), foot.tols.rank)
        self.fiber_dirs = np.einsum("jp,pkl->jkl", vt[:self.m3], basis)
        self.n = foot.dim
        self.n_axes = self.n + self.m3

    @cached_property
    def foot_spectrum(self):
        """(lam_tilde descending, mu) of the transported vector at foot."""
        lam, mu = traceless_spectrum(self.foot, self.xi1)
        lam = lam[::-1]                  # shared by both routes' spectra
        lam.flags.writeable = False
        return lam, mu

    @cached_property
    def formula(self) -> TubeSpectrum:
        """Tube spectrum from foot data through s -> s/(1-s).

        Foot eigenvalues are the traceless shape spectrum of the
        transported vector plus the mean-curvature term; a foot
        eigenvalue at 1 is a focal point and raises FocalDegeneracy.
        The vertical eigenvalue is -1 exactly, with the fiber-orbit
        dimension m3 as multiplicity (no vertical entry when m3 = 0).
        """
        lam, mu = self.foot_spectrum
        means, sizes, _ = _hat_clusters([lam + mu], "foot")
        return TubeSpectrum(
            lambda_hats=tuple(zip(means[::-1].tolist(), sizes[::-1].tolist())),
            vertical_mult=self.m3, foot_eigenvalues=lam,
            mean_term=mu, tube_dim=self.n_axes, source="formula")

    # -- geometry evaluation -------------------------------------------

    def evaluate(self, params: np.ndarray):
        """Tube points for an (N, n_axes) stack of chart parameters, foot
        coordinates u first, then fiber coordinates w.

        Returns the stacks (q, p, radial) of carrier matrices, q = p +
        radial: p = g v g^T with g = exp(sum_i u_i X_i) over the foot's
        m-generators, and radial = g xi g^T where xi has frame
        coefficients exp(sum_j w_j F_j) exp(-B_X) xi1_coords over the
        fiber directions F_j.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.ndim != 2 or params.shape[1] != self.n_axes:
            raise InvalidInput("chart parameters must be an (N, n_axes) stack")
        foot = self.foot
        x = np.einsum("ni,ijk->njk", params[:, :self.n], foot.m_generators)
        g = matrix_exp(x)
        c = matrix_exp(-frame_action(x, foot.normal_frame)) @ self.xi1_coords
        if self.m3:
            fiber = np.einsum("nj,jkl->nkl", params[:, self.n:],
                              self.fiber_dirs)
            c = np.einsum("nkl,nl->nk", matrix_exp(fiber), c)
        gt = np.swapaxes(g, 1, 2)
        p = g @ foot.point @ gt
        radial = g @ np.einsum("nk,kij->nij", c, foot.normal_frame) @ gt
        return p + radial, p, radial

    @cached_property
    def _stencil(self):
        """(coef, q, p, radial): the chart evaluated once on the
        central-difference stencil points of every axis, and the weights
        with which values.T @ coef is the Jacobian at the chart origin
        of any per-point quantity.  The n foot axes take the 7-point
        stencil, the fiber axes the 5-point one, each over
        [-PATCH_EXTENT, PATCH_EXTENT]."""
        points, coef = [], []
        for axis in range(self.n_axes):
            weights = _W7 if axis < self.n else _W5
            half = len(weights) // 2
            h = PATCH_EXTENT / half
            for k in np.flatnonzero(weights):
                points.append(np.zeros(self.n_axes))
                points[-1][axis] = (k - half) * h
                coef.append(np.zeros(self.n_axes))
                coef[-1][axis] = weights[k] / h
        return (np.array(coef), *self.evaluate(np.array(points)))

    @cached_property
    def _axis_stencils(self):
        """First derivatives of q and of the radial field along each axis."""
        coef, q, _, radial = self._stencil
        rep = self.foot.rep
        both = np.concatenate([rep.coords(q), rep.coords(radial)],
                              axis=1).T @ coef
        d = rep.carrier_dim
        return both[:d], both[d:]

    # -- direct route: the radial shape operator -----------------------

    @cached_property
    def shape_operator(self):
        """(A, Jc): the radial shape operator on an orthonormal tube
        tangent basis Q, symmetric (n+m3) x (n+m3), and the chart
        Jacobian in that basis.  PatchDegenerate if the chart loses rank.
        """
        jac, dnormal = self._axis_stencils
        q_frame, _, _, rank = rank_reveal(jac, self.foot.tols.rank)
        if rank < self.n_axes:
            raise PatchDegenerate("tube chart Jacobian lost rank; "
                                  "move the base point")
        jc = q_frame.T @ jac
        a = -(q_frame.T @ dnormal) @ np.linalg.inv(jc)
        return 0.5 * (a + a.T), jc

    @cached_property
    def _clusters(self):
        """Clustered radial spectrum as (dec, means, vert, horiz): vert is
        the cluster nearest -1, or None when there is no fiber (m3 = 0),
        horiz the others by descending value."""
        dec = sym_eig(self.shape_operator[0], tols=self.foot.tols._replace(
            cluster_gap=TUBE_CLUSTER_GAP))
        means = dec.cluster_means()
        vert = int(np.argmin(np.abs(means - (-1.0)))) if self.m3 else None
        horiz = sorted((i for i in range(len(means)) if i != vert),
                       key=lambda i: -means[i])
        return dec, means, vert, horiz

    @cached_property
    def spectrum(self) -> TubeSpectrum:
        """Patch-based tube spectrum, with the formula route's foot data."""
        dec, means, vert, horiz = self._clusters
        sizes = dec.cluster_sizes()
        foot_lam, mu = self.foot_spectrum
        return TubeSpectrum(
            lambda_hats=tuple((float(means[i]), int(sizes[i])) for i in horiz),
            vertical_mult=0 if vert is None else int(sizes[vert]),
            foot_eigenvalues=foot_lam, mean_term=mu,
            tube_dim=self.n_axes, source="patch",
            vertical_value=-1.0 if vert is None else float(means[vert]))

    @cached_property
    def eigendistribution(self):
        """Orthonormal basis of the top horizontal eigenvalue cluster.

        Returned in tube tangent frame coordinates (the Q basis of
        shape_operator).
        """
        dec, _, _, horiz = self._clusters
        if not horiz:
            raise InvalidInput("no such horizontal eigenvalue cluster")
        return dec.vectors[:, list(dec.clusters[horiz[0]])]

    # -- pointwise hat-eigenvalues through foot data -------------------

    def _hat_values(self, p: np.ndarray, radial: np.ndarray) -> np.ndarray:
        """(N, 2) array of (hat1, hat2) of radial[i] at the displaced foot
        p[i], rebuilt honestly (one stack) and read by the formula route
        through the base-point foot's spectrum routine, which the
        direct-vs-formula check certifies at the base point."""
        spectra, means = traceless_spectra_at(self.foot.rep, p, radial,
                                              self.foot.tols)
        hats, _, ends = _hat_clusters(
            [lam + mu for lam, mu in zip(spectra, means)], "displaced foot")
        # the top cluster of each row, and the one below it if the row has it
        top = ends - 1
        second = top - (np.diff(ends, prepend=0) > 1)
        return np.stack([hats[top], hats[second]], axis=1)

    @cached_property
    def _stencil_hats(self) -> np.ndarray:
        """(hat1, hat2) at the displaced foot of every stencil point."""
        _, _, p, radial = self._stencil
        return self._hat_values(p, radial)


def tube_spectrum_via_formula(M: OrbitSubmanifold, xi: np.ndarray,
                              curve: OrbitCurve | None = None
                              ) -> TubeSpectrum:
    """Tube spectrum from foot data (TubePatch.formula)."""
    return TubePatch(M, xi, curve=curve).formula


def tube_spectrum_direct(M: OrbitSubmanifold, xi: np.ndarray,
                         curve: OrbitCurve | None = None):
    """Patch-based tube spectrum; returns (TubeSpectrum, TubePatch)."""
    patch = TubePatch(M, xi, curve=curve)
    return patch.spectrum, patch


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


class DupinResult(NamedTuple):
    """Directional-derivative bounds of the hat-eigenvalues along E1."""

    max_hat1_derivative: float
    max_hat2_derivative: float
    directions_tested: int


def dupin_check(M: OrbitSubmanifold, xi: np.ndarray,
                patch: TubePatch | None = None) -> DupinResult:
    """Constancy of hat1 (and hat2) along the top eigendistribution.

    The stencil Jacobian of the hat-eigenvalues at the displaced feet
    of the tube patch (by default the patch at xi on M), applied to the
    chart velocity of each E1 frame direction; requires multiplicity
    >= 2.
    """
    if patch is None:
        patch = TubePatch(M, xi)
    if patch.spectrum.lambda_hats[0][1] < 2:
        raise NotApplicable("top hat-eigenvalue is simple; no integral "
                            "manifold to test along")
    # one chart velocity per column; jc takes each to its unit E1 vector
    vels = np.linalg.inv(patch.shape_operator[1]) @ patch.eigendistribution
    slopes = np.abs(patch._stencil_hats.T @ patch._stencil[0] @ vels)
    worst1, worst2 = np.max(slopes, axis=1)
    return DupinResult(max_hat1_derivative=float(worst1),
                       max_hat2_derivative=float(worst2),
                       directions_tested=vels.shape[1])


class CausticResult(NamedTuple):
    """Rank data of the caustic map on a tube patch."""

    kernel_dim: int
    kernel_angle_to_e1: float
    shift: float


def caustic_rank_check(M: OrbitSubmanifold, xi: np.ndarray,
                       patch: TubePatch | None = None) -> CausticResult:
    """Kernel of the caustic map q + (hat1 + c)^{-1} (radial - c q).

    The shift c replaces the radial normal by radial - c q (q is also
    normal; its shape operator is -Id), moving every hat-eigenvalue up
    by c = max(0, -min hat) + 1, so each shifted one is at least 1 and
    hat1 + c never vanishes.  The differential is taken by the stencil
    of the patch (by default the patch at xi on M), from its chart
    values and displaced-foot hat values; the kernel must be the top
    eigendistribution.
    """
    if patch is None:
        patch = TubePatch(M, xi)
    hats = [v for v, _ in patch.spectrum.lambda_hats]
    if patch.m3:
        # the vertical eigenvalue is -1 exactly; the patch only measures it
        hats.append(-1.0)
    shift = max(0.0, -min(hats)) + 1.0
    coef, q, _, radial = patch._stencil
    hat1 = patch._stencil_hats[:, 0]
    zeta = radial - shift * q
    jac = patch.foot.rep.coords(
        q + (1.0 / (hat1 + shift))[:, None, None] * zeta).T @ coef

    # kernel in chart parameters, then into the tube tangent frame
    tols = patch.foot.tols
    kernel = gram_kernel(jac, tols)
    if kernel.dim == 0:
        return CausticResult(kernel_dim=0, kernel_angle_to_e1=np.pi / 2,
                             shift=float(shift))
    tangent_kernel = orthonormal_span(
        list((patch.shape_operator[1] @ kernel.basis).T),
        ambient_dim=patch.n_axes, tol=tols.rank)
    e1 = Subspace(ambient_dim=patch.n_axes, basis=patch.eigendistribution,
                  tol=tols.rank)
    angle = principal_angle_max(tangent_kernel, e1)
    return CausticResult(kernel_dim=int(kernel.dim),
                         kernel_angle_to_e1=float(angle), shift=float(shift))


def normal_exponential_differential(M: OrbitSubmanifold,
                                    eta: np.ndarray) -> np.ndarray:
    """Horizontal differential I - A_eta of the normal exponential."""
    return np.eye(M.dim) - shape_operator(M, eta)


def normal_exponential_fd_residual(M: OrbitSubmanifold, xi: np.ndarray,
                                   patch: TubePatch | None = None) -> float:
    """Cross-validate I - A_xi1 against finite differences at the foot.

    The chart of the tube patch (by default the patch at xi on M) moves
    its foot along the tangent frame and carries xi1 as a parallel
    normal field, so the foot-axis columns of its stencil Jacobian of q
    must be (I - A_xi1) applied to the tangent frame; returns the
    largest column residual.
    """
    if patch is None:
        patch = TubePatch(M, xi)
    foot = patch.foot
    expected = normal_exponential_differential(foot, patch.xi1)
    predicted = expected.T @ foot.rep.coords(foot.tangent_frame)
    fd = patch._axis_stencils[0][:, :patch.n].T
    return float(np.max(np.linalg.norm(fd - predicted, axis=1)))
