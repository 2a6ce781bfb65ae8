"""Veronese-type orbits and their verification suite.

The quadratic map Q(u) = u u^t sends the unit sphere of R^r to rank-one
projectors; its traceless centering lands in the carrier of the
conjugation representation, where the image is exactly the orbit of a
two-eigenvalue matrix with multiplicities (1, r-1).  The map and its
residuals live in the tests, as oracles for the orbit built here.

Among the checks, alpha is parallel on the Veronese orbits (they are
extrinsically symmetric, Ferus 1980); nabla alpha is closed-form
algebra on the alpha tensor and the frame actions
(:func:`normholo.srep.frame_action`) of the orbit's m-generators, see
:func:`parallel_alpha_residual`.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .holonomy import HolonomyVerdict, analyze
from .linalg import DEFAULT_TOLS, Tolerances
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    mean_curvature, second_fundamental_form)
from .srep import SymmetricPairRep, frame_action

ALPHA_RESIDUAL_TOL = 1e-4
# the n for which verify_veronese_facts runs its characterization suite
FACT_NS = range(2, 7)


def veronese_type_point(r: int, scale: float = 1.0) -> np.ndarray:
    """scale * (e1 e1^t - Id/r), the two-eigenvalue base point; the two
    orbits in a sphere are scale > 0 and scale < 0."""
    if r < 3:
        raise InvalidInput("veronese-type points need r >= 3")
    if scale == 0.0:
        raise InvalidInput("scale must be nonzero")
    return float(scale) * (np.diag(np.eye(r)[0]) - np.eye(r) / r)


class VeroneseOrbit(NamedTuple):
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
    rep = SymmetricPairRep.for_size(r)
    return VeroneseOrbit(n=n, r=r, base_point=s,
                         orbit=build_orbit(rep, s, tols=tols))


class MinimalDimensionScan(NamedTuple):
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


class VeroneseFactReport(NamedTuple):
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
