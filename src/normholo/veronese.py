"""Veronese maps, Veronese-type orbits, and their verification suite.

The quadratic map Q(u) = u u^t sends the unit sphere of R^r to rank-one
projectors; its traceless centering rho_tilde lands in the carrier of
the conjugation representation, where the image is exactly the orbit of
a two-eigenvalue matrix with multiplicities (1, r-1).

Among the checks, alpha is parallel on the Veronese orbits (they are
extrinsically symmetric, Ferus 1980); nabla alpha is closed-form
algebra on the alpha tensor and the frame actions
(:func:`normholo.srep.frame_action`) of the orbit's m-generators, see
:func:`parallel_alpha_residual`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .holonomy import HolonomyVerdict, analyze
from .linalg import DEFAULT_TOLS, Tolerances, matrix_exp, sym_eig
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    mean_curvature, second_fundamental_form)
from .srep import SymmetricPairRep, frame_action

UNIT_TOL = 1e-10
ALPHA_RESIDUAL_TOL = 1e-4
MAP_SAMPLES = 8           # draws of the map checks, seeded with 0
CONGRUENCE_SAMPLES = 20
# the n for which verify_veronese_facts runs its characterization suite
FACT_NS = range(2, 7)


def veronese_map(v: np.ndarray) -> np.ndarray:
    """Q(v) = v v^t for a unit vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInput("veronese_map expects a vector")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise InvalidInput("veronese_map needs a unit vector")
    return np.outer(v, v)


def rho_tilde(v: np.ndarray) -> np.ndarray:
    """Centered Veronese map Q(v) - Id/r, traceless by construction."""
    q = veronese_map(v)
    r = q.shape[0]
    return q - np.eye(r) / r


def veronese_type_point(r: int, scale: float = 1.0) -> np.ndarray:
    """scale * (e1 e1^t - Id/r), the two-eigenvalue base point; the two
    orbits in a sphere are scale > 0 and scale < 0."""
    if r < 3:
        raise InvalidInput("veronese-type points need r >= 3")
    if scale == 0.0:
        raise InvalidInput("scale must be nonzero")
    return float(scale) * (np.diag(np.eye(r)[0]) - np.eye(r) / r)


@dataclass(frozen=True)
class VeroneseOrbit:
    """A Veronese orbit together with its construction data."""

    n: int
    r: int
    base_point: np.ndarray
    orbit: OrbitSubmanifold


def veronese_orbit(n: int, tols: Tolerances = DEFAULT_TOLS) -> VeroneseOrbit:
    """Build the orbit of a Veronese-type point on the unit sphere."""
    if n < 2:
        raise InvalidInput("veronese orbits start at n = 2")
    r = n + 1
    s = veronese_type_point(r)
    dec = sym_eig(s, tols=tols)
    mults = sorted(dec.cluster_sizes())
    if mults != [1, r - 1]:
        raise InvalidInput("base point lost the (1, r-1) eigenvalue split")
    rep = SymmetricPairRep.for_size(r)
    return VeroneseOrbit(n=n, r=r, base_point=s,
                         orbit=build_orbit(rep, s, tols=tols))


@dataclass(frozen=True)
class MinimalDimensionScan:
    """Orbit dimensions of two-eigenvalue points, by multiplicity split."""

    r: int
    splits: tuple                # k = 1..r-1
    formula_dims: tuple          # k (r - k)
    built_dims: tuple            # ranks measured by build_orbit
    minimum: int
    argmin_splits: tuple

    def agrees(self) -> bool:
        return self.formula_dims == self.built_dims


def minimal_dimension_scan(r: int) -> MinimalDimensionScan:
    """k(r-k) against measured orbit dimensions, k = 1..r-1.

    Sample points carry eigenvalue (r-k) with multiplicity k and -k with
    multiplicity r-k, traceless by construction.
    """
    if r < 3:
        raise InvalidInput("scan needs r >= 3")
    rep = SymmetricPairRep.for_size(r)
    splits = tuple(range(1, r))
    formula = tuple(k * (r - k) for k in splits)
    built = []
    for k in splits:
        diag = np.array([float(r - k)] * k + [-float(k)] * (r - k))
        built.append(build_orbit(rep, np.diag(diag)).dim)
    built = tuple(built)
    mn = min(formula)
    argmins = tuple(k for k, d in zip(splits, formula) if d == mn)
    return MinimalDimensionScan(r=r, splits=splits, formula_dims=formula,
                                built_dims=built, minimum=mn,
                                argmin_splits=argmins)


def equivariance_residual(n: int) -> float:
    """max |rho_tilde(g v) - g rho_tilde(v) g^t| over sampled (v, g)."""
    r = n + 1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(MAP_SAMPLES):
        v = rng.standard_normal(r)
        v /= np.linalg.norm(v)
        x = rng.standard_normal((r, r))
        x = 0.5 * (x - x.T)
        g = matrix_exp(x)
        gap = rho_tilde(g @ v) - g @ rho_tilde(v) @ g.T
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst


def immersion_scaling_residuals(n: int) -> tuple[float, float]:
    """Gram defects of dQ on sphere tangent spaces, both conventions.

    Returns (half-trace isometry residual, global-trace sqrt(2)-homothety
    residual); dQ_v(w) = v w^t + w v^t on w in v-perp.
    """
    r = n + 1
    rng = np.random.default_rng(0)
    iso_worst = 0.0
    hom_worst = 0.0
    for _ in range(MAP_SAMPLES):
        v = rng.standard_normal(r)
        v /= np.linalg.norm(v)
        q, _ = np.linalg.qr(v.reshape(-1, 1), mode="complete")
        tangent = q[:, 1:]
        imgs = np.stack([np.outer(v, w) + np.outer(w, v)
                         for w in tangent.T])
        gram = np.einsum("aij,bij->ab", imgs, imgs)
        iso_worst = max(iso_worst, float(np.linalg.norm(
            0.5 * gram - tangent.T @ tangent)))
        hom_worst = max(hom_worst, float(np.linalg.norm(
            gram - 2.0 * tangent.T @ tangent)))
    return iso_worst, hom_worst


def congruence_residual(n: int) -> float:
    """Alignment residual of rho_tilde samples against the orbit point.

    For each sampled unit v the frame of rho_tilde(v) (top eigenvector
    plus a completed complement) conjugates the base point onto the
    sample; the max carrier-norm gap over samples is returned.
    """
    r = n + 1
    s = veronese_type_point(r)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(CONGRUENCE_SAMPLES):
        v = rng.standard_normal(r)
        v /= np.linalg.norm(v)
        z = rho_tilde(v)
        w, u = np.linalg.eigh(z)
        top = u[:, int(np.argmax(w))]
        # frame matching the (1, r-1) eigenstructure of the base point;
        # the sign of the top column cancels in the conjugation
        g, _ = np.linalg.qr(top.reshape(-1, 1), mode="complete")
        worst = max(worst, float(np.linalg.norm(g @ s @ g.T - z)))
    return worst


def parallel_alpha_residual(M: OrbitSubmanifold) -> float:
    """Frobenius norm of nabla alpha at the base point, over all frames.

    alpha is equivariant and transport along exp(tX) is exp(-t B_X) in
    frame coefficients (see :mod:`normholo.transport`).  So with B^T_m,
    B^N_m the frame actions of the m-generator X_m (whose image is e_m)
    on the tangent and normal frames, (nabla_m alpha)[i, j, a] is, up to
    sign, the sum over k, b of B^T_m[k, i] alpha[k, j, a]
    + B^T_m[k, j] alpha[i, k, a] + B^N_m[b, a] alpha[i, j, b].  It
    vanishes exactly when alpha is parallel.
    """
    alpha = second_fundamental_form(M)
    bt = frame_action(M.m_generators, M.tangent_frame)
    bn = frame_action(M.m_generators, M.normal_frame)
    nabla = (np.einsum("mki,kja->mija", bt, alpha)
             + np.einsum("mkj,ika->mija", bt, alpha)
             + np.einsum("mba,ijb->mija", bn, alpha))
    return float(np.linalg.norm(nabla))


@dataclass(frozen=True)
class VeroneseFactReport:
    """Pass/fail record of the Veronese characterization checks."""

    n: int
    r: int
    dim: int
    codim: int
    minimal_in_sphere: bool
    sphere_residual: float
    holonomy_rank: int
    factor_count: int
    factor_dim: int
    algebra_dim: int
    transitive: bool
    homothecy_ok: bool
    beta: float
    beta_expected: float
    alpha_residual: float
    verdict: HolonomyVerdict

    def failures(self) -> tuple:
        n = self.n
        tags = []
        if self.dim != n:
            tags.append("i-dim")
        if self.codim != n * (n + 1) // 2:
            tags.append("i-codim")
        if not self.minimal_in_sphere:
            tags.append("i-minimal")
        if self.holonomy_rank != 1:
            tags.append("i-full")
        if self.factor_count != 1 or self.factor_dim != n * (n + 1) // 2 - 1:
            tags.append("iii-factor")
        if self.algebra_dim != n * (n - 1) // 2:
            tags.append("iii-algebra")
        if self.transitive != (n == 2):
            tags.append("iii-transitive")
        if not self.homothecy_ok or abs(self.beta - self.beta_expected) > 1e-8:
            tags.append("iii-homothecy")
        if self.alpha_residual > ALPHA_RESIDUAL_TOL:
            tags.append("iv-parallel-alpha")
        return tuple(tags)

    def all_pass(self) -> bool:
        return not self.failures()


def verify_veronese_facts(n: int, seed: int = 0,
                          tols: Tolerances = DEFAULT_TOLS
                          ) -> VeroneseFactReport:
    """Run the full characterization suite on the Veronese orbit V^n."""
    if n not in FACT_NS:
        raise InvalidInput(f"fact verification covers n = {FACT_NS[0]}.."
                           f"{FACT_NS[-1]}")
    vo = veronese_orbit(n, tols=tols)
    M = vo.orbit
    mc = mean_curvature(M)
    hom = homothecy_test(M)
    verdict = analyze(M, seed=seed)
    factor_dim = verdict.factor_dims[0] if verdict.factors else 0
    transitive = bool(verdict.factors and verdict.factors[0].transitive)
    alpha_res = parallel_alpha_residual(M)
    return VeroneseFactReport(
        n=n, r=vo.r, dim=M.dim, codim=M.codim,
        minimal_in_sphere=mc.minimal_in_sphere,
        sphere_residual=mc.sphere_residual,
        holonomy_rank=verdict.rank,
        factor_count=verdict.factor_count,
        factor_dim=factor_dim,
        algebra_dim=verdict.algebra.dim,
        transitive=transitive,
        homothecy_ok=hom.is_homothecy,
        beta=hom.ratio,
        beta_expected=float(np.sqrt(n / (n + 1.0))),
        alpha_residual=alpha_res,
        verdict=verdict)
