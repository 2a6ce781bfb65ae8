"""Adapted normal curvature and the restricted normal holonomy algebra.

Everything here works in coordinates of the orthonormal normal frame at
the orbit base point.  The curvature tensor is kept as a factor F of
its Gram form F F^T; the curvature endomorphisms span the columns of F,
and their bracket closure is the holonomy algebra; verdicts (fixed set,
invariant factors, per-factor transitivity, the factor-count bound, the
slice distance) are assembled on top.  The loop probe at the bottom is
the independent cross-check: it derives holonomy elements from exact
parallel transport around small closed loops and compares their logs
against the curvature-generated algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotApplicable
from .liealg import (LieAlgebraSpan, RepDecomposition, TransitivityResult,
                     bracket_closure, invariant_decomposition,
                     is_transitive_on_sphere, skew_span)
from .linalg import (Subspace, matrix_exp, orthogonal_log, rank_reveal,
                     subspace_distance)
from .orbit import (OrbitSubmanifold, homothecy_test, shape_operator,
                    shape_operators)
from .srep import CartanCurvature, frame_action
from .transport import closed_square_loop, transport_frame_return

# The normal holonomy of an s-orbit is its slice representation
# (Heintze-Olmos 1992), so a slice distance within this bound (the
# acceptance bound on that distance) classes the orbit s-orbit-compatible.
SLICE_TOL = 1e-7


@dataclass(frozen=True)
class AdaptedCurvature:
    """Normal curvature over an orthonormal frame of nu_v, as a factor.

    t[a, b, c, d] = -trace([A_a, A_b] [A_c, A_d]), A_k the shape operator
    of the k-th frame vector, is the Gram matrix of the commutators
    (CartanCurvature.commutators).  factor is F = U diag(sigma) from
    their thin SVD, so t = F F^T over the pair index (a, b).
    """

    frame: np.ndarray     # (K, R, R)
    factor: np.ndarray    # (K*K, m)

    @property
    def normal_dim(self) -> int:
        return self.frame.shape[0]

    def norm(self) -> float:      # ||t||_F = ||sigma^2||_2
        return float(np.linalg.norm(np.sum(self.factor ** 2, axis=0)))


def adapted_curvature(M: OrbitSubmanifold) -> AdaptedCurvature:
    """Curvature factor of the normal connection over the nu_v frame,
    computed once per orbit (kept in the orbit's cache)."""
    if "curvature" in M._cache:
        return M._cache["curvature"]
    ops = shape_operators(M)
    u, s, _ = np.linalg.svd(CartanCurvature.commutators(ops),
                            full_matrices=False)
    # the columns of C are skew in the R x R index pair, so its rank is
    # at most R(R-1)/2 and the singular triples past that are round-off
    r = ops.shape[-1]
    factor = np.ascontiguousarray((u * s)[:, :r * (r - 1) // 2])
    factor.flags.writeable = False
    M._cache["curvature"] = result = AdaptedCurvature(
        frame=M.normal_frame, factor=factor)
    return result


def holonomy_algebra(M: OrbitSubmanifold) -> LieAlgebraSpan:
    """Bracket closure of the curvature endomorphisms on nu_v coords,
    computed once per orbit (kept in the orbit's cache).

    The endomorphism of the pair (a, b), t e_ab with its skew (c, d)
    block transposed, spans with the others the columns of the factor;
    offering sigma_i F_i (the eigenpairs of t) ranks them at t's scale.
    """
    if "algebra" not in M._cache:
        curv = adapted_curvature(M)
        k = curv.normal_dim
        f = curv.factor
        offered = (f * np.linalg.norm(f, axis=0)).T.reshape(-1, k, k)
        span = skew_span(offered, acting_dim=k, tol=M.tols.rank)
        M._cache["algebra"] = bracket_closure(span, tol=M.tols.rank)
    return M._cache["algebra"]


def position_fixed_residual(M: OrbitSubmanifold,
                            algebra: LieAlgebraSpan) -> float:
    """Max norm of algebra elements applied to the position direction."""
    vc = M.normal_coords(M.point)
    if algebra.dim == 0:
        return 0.0
    return float(max(np.linalg.norm(x @ vc) for x in algebra.basis))


def symmetric_system_residual(curv: AdaptedCurvature,
                              algebra: LieAlgebraSpan,
                              seed: int = 0) -> float:
    """Invariance defect of the curvature tensor under sampled holonomy.

    Pulls the tensor back through h = exp(Lambda) for six random unit
    algebra elements, t'[abcd] = sum t[pqrs] h_pa h_qb h_rc h_sd, i.e.
    F_i -> h^T F_i h, and reports the max of ||t' - t|| / ||t||, where
    with [F' F] = Q [R1 R2] that gap is ||R1 R1^T - R2 R2^T||.
    """
    if algebra.dim == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    f = curv.factor
    k, m = curv.normal_dim, f.shape[1]
    cols = f.T.reshape(m, k, k)
    scale = max(curv.norm(), 1e-30)
    worst = 0.0
    for _ in range(6):
        c = rng.standard_normal(algebra.dim)
        c /= np.linalg.norm(c)
        h = matrix_exp(np.einsum("p,pij->ij", c, algebra.matrices()))
        pulled = (h.T @ cols @ h).reshape(m, k * k).T
        tri = np.linalg.qr(np.hstack([pulled, f]), mode="r")
        r1, r2 = tri[:, :m], tri[:, m:]
        worst = max(worst, float(np.linalg.norm(r1 @ r1.T - r2 @ r2.T)
                                 / scale))
    return worst


def slice_holonomy_distance(M: OrbitSubmanifold,
                            algebra: LieAlgebraSpan) -> float:
    """Subspace distance between the slice image and the holonomy algebra.

    Both algebras act on nu_v in the same frame coordinates; their
    flattened bases are compared as subspaces of R^(K*K).
    """
    _, iso_mats = M.rep.isotropy_algebra(M.point, tols=M.tols)
    images = frame_action(iso_mats, M.normal_frame)
    slice_mats = 0.5 * (images - images.transpose(0, 2, 1))
    keep = [s for s in slice_mats if np.linalg.norm(s) > M.tols.rank]
    k = algebra.acting_dim
    slice_span = skew_span(keep, acting_dim=k, tol=M.tols.rank)
    return subspace_distance(*(
        Subspace(ambient_dim=k * k,
                 basis=span.matrices().reshape(span.dim, k * k).T)
        for span in (slice_span, algebra)))


@dataclass(frozen=True)
class CartanComparison:
    """Normal curvature over nu_bar against the scaled ambient model."""

    beta: float            # homothecy ratio of the traceless shape map
    tensor_norm: float     # Frobenius norm of the nu_bar curvature tensor
    residual: float        # max entrywise gap / max entry magnitude


def cartan_comparison(M: OrbitSubmanifold) -> CartanComparison:
    """Match the nu_bar normal curvature to the ambient Cartan tensor.

    When xi -> A~_xi is a homothecy of ratio beta on nu_bar, the tensor
    -tr([A_a, A_b][A_c, A_d]) over an orthonormal nu_bar frame must equal
    beta**4 times the Cartan curvature entries of the same frame matrices.
    Raises NotApplicable when the homothecy premise fails.
    """
    hom = homothecy_test(M)
    if not hom.is_homothecy:
        raise NotApplicable(
            "traceless shape map is not a homothecy on nu_bar "
            f"(gram residual {hom.gram_residual:.2e})")
    nbar = M.nbar_frame
    lhs = CartanCurvature.entries([shape_operator(M, xi) for xi in nbar])
    rhs = hom.ratio ** 4 * CartanCurvature.entries(nbar)
    scale = max(float(np.max(np.abs(lhs))), 1e-30)
    gap = float(np.max(np.abs(lhs - rhs))) / scale
    return CartanComparison(beta=hom.ratio,
                            tensor_norm=float(np.linalg.norm(lhs)),
                            residual=gap)


@dataclass(frozen=True)
class FactorVerdict:
    """Transitivity data for one invariant factor of the holonomy action."""

    subspace: Subspace
    dim: int
    algebra_dim: int
    transitive: bool
    evidence: TransitivityResult


@dataclass
class HolonomyVerdict:
    """Holonomy phenotype of an orbit: factors, rank, bound, class."""

    orbit: OrbitSubmanifold
    curvature: AdaptedCurvature
    algebra: LieAlgebraSpan
    decomposition: RepDecomposition
    factors: tuple              # of FactorVerdict
    rank: int                   # holonomy-fixed rank
    factor_count: int
    bound_satisfied: bool
    conjecture_class: str
    position_residual: float
    symmetric_residual: float
    slice_distance: float
    seed: int

    @property
    def factor_dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)


def analyze(M: OrbitSubmanifold, seed: int = 0) -> HolonomyVerdict:
    """Full holonomy verdict for an orbit, computed once per orbit and
    seed (kept in the orbit's cache).

    The conjecture class is read off measured facts: "transitive" when
    a single factor covers the sphere-normal directions and acts
    transitively; "s-orbit-compatible" when the fixed set has dimension
    at least 2 or the slice representation matches the holonomy algebra
    (slice distance at most SLICE_TOL), as it does on every s-orbit;
    anything else is flagged "violation-candidate" for inspection.
    """
    key = ("verdict", seed)
    if key in M._cache:
        return M._cache[key]
    curv = adapted_curvature(M)
    algebra = holonomy_algebra(M)
    decomp = invariant_decomposition(algebra, seed=seed, tols=M.tols)
    factors = []
    for sub in decomp.factors:
        restricted = algebra.restrict(sub)
        ev = is_transitive_on_sphere(restricted, seed=seed, tols=M.tols)
        factors.append(FactorVerdict(
            subspace=sub, dim=sub.dim, algebra_dim=restricted.dim,
            transitive=ev.transitive, evidence=ev))
    factors = tuple(factors)
    rank = decomp.rank
    r = len(factors)
    k = curv.normal_dim
    slice_dist = slice_holonomy_distance(M, algebra)

    if rank == 1 and r == 1 and factors[0].dim == k - 1 \
            and factors[0].transitive:
        verdict_class = "transitive"
    elif rank >= 2 or slice_dist <= SLICE_TOL:
        verdict_class = "s-orbit-compatible"
    else:
        verdict_class = "violation-candidate"

    M._cache[key] = verdict = HolonomyVerdict(
        orbit=M, curvature=curv, algebra=algebra, decomposition=decomp,
        factors=factors, rank=rank, factor_count=r,
        bound_satisfied=(r <= M.dim // 2), conjecture_class=verdict_class,
        position_residual=position_fixed_residual(M, algebra),
        symmetric_residual=symmetric_system_residual(curv, algebra, seed=seed),
        slice_distance=slice_dist, seed=seed)
    return verdict


@dataclass(frozen=True)
class CertificatePair:
    """One non-commuting shape pair witnessing a non-flat factor."""

    factor_index: int
    xi_a: np.ndarray
    xi_b: np.ndarray
    commutator: np.ndarray
    norm: float


@dataclass
class CommutingCertificate:
    """Independent commuting commutators, one per non-flat factor."""

    pairs: list = field(default_factory=list)
    flat_factors: list = field(default_factory=list)
    independent: bool = True
    max_pairwise_commutator: float = 0.0


def commuting_certificate(M: OrbitSubmanifold,
                          verdict: HolonomyVerdict | None = None
                          ) -> CommutingCertificate:
    """Search each holonomy factor for a non-commuting shape pair.

    For factor i the pair (xi_i, xi_i') maximizing |[A_xi, A_xi']| over
    the factor frame is recorded; factors where every commutator is at
    most the orbit's rank threshold are flagged as flat anomalies.  The
    collected commutators are certified linearly independent and
    pairwise commuting.
    """
    if verdict is None:
        verdict = analyze(M)
    if not verdict.factors:
        raise InvalidInput("no holonomy factors to certify")
    ops = shape_operators(M)
    cert = CommutingCertificate()
    for i, fac in enumerate(verdict.factors):
        cols = fac.subspace.basis            # (K, d) nu-frame coords
        fops = np.einsum("ka,kij->aij", cols, ops)
        a, b = np.triu_indices(cols.shape[1], 1)
        coms = fops[a] @ fops[b] - fops[b] @ fops[a]
        norms = np.linalg.norm(coms, axis=(1, 2))
        if not norms.size or norms.max() <= M.tols.rank:
            cert.flat_factors.append(i)
            continue
        best = int(np.argmax(norms))    # first maximum in a < b order
        xi_a, xi_b = np.einsum("ka,kij->aij", cols[:, [a[best], b[best]]],
                               M.normal_frame)
        cert.pairs.append(CertificatePair(
            factor_index=i, xi_a=xi_a, xi_b=xi_b,
            commutator=coms[best].copy(), norm=float(norms[best])))
    if cert.pairs:
        stacked = np.stack([p.commutator.ravel() / p.norm for p in cert.pairs])
        cert.independent = (rank_reveal(stacked.T, M.tols.rank)[3]
                            == len(cert.pairs))
        cs = [p.commutator / p.norm for p in cert.pairs]
        cert.max_pairwise_commutator = max(
            (float(np.linalg.norm(ci @ cj - cj @ ci))
             for i, ci in enumerate(cs) for cj in cs[i + 1:]), default=0.0)
    return cert


@dataclass
class LoopProbeResult:
    """Holonomy span derived from parallel transport around small loops."""

    span: LieAlgebraSpan            # bracket closure of the loop logs
    raw_dim: int                    # span dim before closure
    logs: np.ndarray                # (L, K, K)
    containment_residual: float     # vs the curvature-generated algebra
    loop_radius: float


def loop_holonomy_probe(M: OrbitSubmanifold, loop_radius: float = 0.05,
                        count: int = 12, seed: int = 0,
                        algebra: LieAlgebraSpan | None = None
                        ) -> LoopProbeResult:
    """Transport the normal frame around seeded square loops.

    Each loop's frame-return map comes from exact transport, so it is
    orthogonal to round-off; its log is extracted and the logs
    bracket-closed.  The containment residual is the max relative
    distance of a nonzero log from the curvature algebra (a zero log, as
    on a flat normal bundle, lies in any algebra); for the orbits in
    scope the closed span reproduces that algebra.  Raises InvalidInput
    when count < 1, and NotApplicable when dim M < 2, where no loop spans
    a square.
    """
    if count < 1:
        raise InvalidInput(f"loop count must be at least 1, got {count}")
    if M.dim < 2:
        raise NotApplicable("loops need an orbit of dimension >= 2")
    if algebra is None:
        algebra = holonomy_algebra(M)
    rng = np.random.default_rng(seed)
    k = M.codim
    logs = []
    worst = 0.0
    alg_flat = algebra.matrices().reshape(algebra.dim, -1) \
        if algebra.dim else np.zeros((0, k * k))
    attempts = 0
    while len(logs) < count and attempts < 4 * count + 8:
        attempts += 1
        c1 = rng.standard_normal(M.dim)
        c1 /= np.linalg.norm(c1)
        c2 = rng.standard_normal(M.dim)
        c2 -= (c2 @ c1) * c1
        nrm = np.linalg.norm(c2)
        if nrm < 1e-8:
            continue
        c2 /= nrm
        x = np.einsum("i,ijk->jk", c1, M.m_generators)
        y = np.einsum("i,ijk->jk", c2, M.m_generators)
        loop = closed_square_loop(M, x, y, loop_radius)
        lam = orthogonal_log(transport_frame_return(loop))
        logs.append(lam)
        nrm = np.linalg.norm(lam)
        if nrm < 1e-12:
            continue
        if alg_flat.shape[0]:
            coeffs = alg_flat @ lam.ravel()
            resid = lam.ravel() - alg_flat.T @ coeffs
            worst = max(worst, float(np.linalg.norm(resid) / nrm))
        else:
            worst = max(worst, 1.0)
    raw = skew_span(logs, acting_dim=k, tol=M.tols.rank)
    closed = bracket_closure(raw, tol=M.tols.rank)
    return LoopProbeResult(span=closed, raw_dim=raw.dim,
                           logs=np.stack(logs), containment_residual=worst,
                           loop_radius=loop_radius)
