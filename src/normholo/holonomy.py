"""Adapted normal curvature and the restricted normal holonomy algebra.

Everything here works in coordinates of the orthonormal normal frame at
the orbit base point.  The curvature tensor is kept as a factor F of
its Gram form F F^T; the curvature endomorphisms span the columns of F,
and on an s-orbit that span is the holonomy algebra; verdicts (fixed set,
invariant factors, per-factor transitivity, the factor-count bound, the
slice distance) are assembled on top.  The symmetric-system check pulls
F back through six sampled holonomy elements at once and forms the gap
of the Gram forms in m x m blocks on the factor's own columns, with no
QR and no K^2 x K^2 array.  The loop probe at the bottom is
the independent cross-check: it derives holonomy elements from exact
parallel transport around small closed loops, all closed and
transported as one stack, and compares their logs against the
curvature-generated algebra.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NotApplicable
from .liealg import (LieAlgebraSpan, RepDecomposition, TransitivityResult,
                     bracket_closure, invariant_decomposition,
                     is_transitive_on_sphere, skew_span)
from .linalg import (Subspace, _frozen_subspace, _row_norms, matrix_exp,
                     orthogonal_log, rank_reveal, subspace_distance)
from .orbit import (OrbitSubmanifold, homothecy_test, shape_operators,
                    sphere_normal_shape_operators)
from .srep import CartanCurvature, frame_action

# The normal holonomy of an s-orbit is its slice representation
# (Heintze-Olmos 1992), so a slice distance within this bound (the
# acceptance bound on that distance) classes the orbit s-orbit-compatible.
SLICE_TOL = 1e-7


class AdaptedCurvature(NamedTuple):
    """Normal curvature over an orthonormal frame of nu_v, as a factor.

    t[a, b, c, d] = -trace([A_a, A_b] [A_c, A_d]), A_k the shape operator
    of the k-th frame vector, is the Gram matrix of the commutators
    (CartanCurvature.commutators).  factor is F = U diag(sigma) over the
    singular triples of their thin SVD that rank_reveal keeps, so
    t = F F^T over the pair index (a, b) and F has no column on a flat
    normal bundle.
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
    u, s, _, rank = rank_reveal(
        CartanCurvature.commutators(shape_operators(M)), M.tols.rank)
    factor = np.ascontiguousarray(u[:, :rank] * s[:rank])
    factor.flags.writeable = False
    M._cache["curvature"] = result = AdaptedCurvature(
        frame=M.normal_frame, factor=factor)
    return result


def holonomy_algebra(M: OrbitSubmanifold) -> LieAlgebraSpan:
    """Span of the curvature endomorphisms on nu_v coords, computed once
    per orbit (kept in the orbit's cache).

    The endomorphism of the pair (a, b), t e_ab with its skew (c, d)
    block transposed, spans with the others the columns of the factor.
    Those columns F_i = sigma_i u_i are orthogonal and skew in (a, b),
    so their normalized skew parts are the span's orthonormal basis: the
    rank is the factor's, read at the curvature's own scale sigma, not
    at sigma^2.  Where the Nomizu map vanishes the span is the slice
    image of an ideal of the stabilizer algebra (Kostant): a Lie algebra.
    """
    if "algebra" not in M._cache:
        curv = adapted_curvature(M)
        k = curv.normal_dim
        f = curv.factor.T.reshape(-1, k, k)
        f = f - f.transpose(0, 2, 1)
        f /= np.linalg.norm(f, axis=(1, 2), keepdims=True)
        space = _frozen_subspace(f.reshape(-1, k * k).T, M.tols.rank)
        M._cache["algebra"] = LieAlgebraSpan(acting_dim=k, space=space)
    return M._cache["algebra"]


def position_fixed_residual(M: OrbitSubmanifold,
                            algebra: LieAlgebraSpan) -> float:
    """Max norm of algebra elements applied to the position direction."""
    vc = M.normal_coords(M.point)
    return float(np.max(np.linalg.norm(algebra.basis @ vc, axis=1),
                        initial=0.0))


def symmetric_system_residual(curv: AdaptedCurvature,
                              algebra: LieAlgebraSpan,
                              seed: int = 0) -> float:
    """Invariance defect of the curvature tensor under sampled holonomy.

    Pulls the tensor back through h = exp(Lambda) for six random unit
    algebra elements, t'[abcd] = sum t[pqrs] h_pa h_qb h_rc h_sd, i.e.
    F_i -> h^T F_i h, and reports the max of ||t' - t|| / ||t||.  The gap
    ||F' F'^T - F F^T|| is formed in m x m blocks: with U = F / sigma
    (every kept column of F is nonzero), C = U^T F' and E = F' - U C
    (re-projected once), its square is
    ||C C^T - Sigma^2||^2 + 2 <C^T C, E^T E> + ||E^T E||^2.
    """
    if algebra.dim == 0:
        return 0.0
    f = curv.factor
    k, m = curv.normal_dim, f.shape[1]
    cols = f.T.reshape(m, k, k)
    scale = max(curv.norm(), 1e-30)
    c = np.random.default_rng(seed).standard_normal((6, algebra.dim))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    h = matrix_exp(np.einsum("np,pij->nij", c, algebra.basis))[:, None]
    e = (h.transpose(0, 1, 3, 2) @ cols @ h).reshape(6, m, k * k)
    e = e.transpose(0, 2, 1)        # F' of each draw, (6, K^2, m)
    sigma = np.linalg.norm(f, axis=0)
    u = f / sigma
    coef = u.T @ e
    e -= u @ coef                   # E = F' - U C, formed in place
    e -= u @ (u.T @ e)              # re-projected once
    g = e.transpose(0, 2, 1) @ e
    top = coef @ coef.transpose(0, 2, 1) - np.diag(sigma ** 2)
    sq = (np.sum(top ** 2, axis=(1, 2))
          + 2.0 * np.einsum("nab,nab->n", coef.transpose(0, 2, 1) @ coef, g)
          + np.sum(g ** 2, axis=(1, 2)))
    return float(np.sqrt(sq.max())) / scale


def slice_holonomy_distance(M: OrbitSubmanifold,
                            algebra: LieAlgebraSpan) -> float:
    """Subspace distance between the slice image and the holonomy algebra.

    The slice image is the frame action of the orbit's stabilizer on
    nu_v; both algebras act there in the same frame coordinates, and
    their flattened bases are compared as subspaces of R^(K*K).
    """
    images = frame_action(M.stabilizer, M.normal_frame)
    slice_span = skew_span(0.5 * (images - images.transpose(0, 2, 1)),
                           acting_dim=algebra.acting_dim, tol=M.tols.rank)
    return subspace_distance(slice_span.space, algebra.space)


class CartanComparison(NamedTuple):
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
    lhs = CartanCurvature.entries(sphere_normal_shape_operators(M))
    rhs = hom.ratio ** 4 * CartanCurvature.entries(M.nbar_frame)
    scale = max(float(np.max(np.abs(lhs))), 1e-30)
    gap = float(np.max(np.abs(lhs - rhs))) / scale
    return CartanComparison(beta=hom.ratio,
                            tensor_norm=float(np.linalg.norm(lhs)),
                            residual=gap)


class FactorVerdict(NamedTuple):
    """Transitivity data for one invariant factor of the holonomy action."""

    subspace: Subspace
    dim: int
    algebra_dim: int
    transitive: bool
    evidence: TransitivityResult


class HolonomyVerdict(NamedTuple):
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

    The curvature span is the holonomy algebra only where the Nomizu
    map Lambda(X) (the frame action of the m-generators on the normal
    frame) vanishes, as it does on every s-orbit, and a slice distance
    within SLICE_TOL certifies it; elsewhere this raises NotApplicable.
    """
    key = ("verdict", seed)
    if key in M._cache:
        return M._cache[key]
    nomizu = np.max(np.abs(frame_action(M.m_generators, M.normal_frame)),
                    initial=0.0)
    if nomizu > M.tols.rank:
        raise NotApplicable(
            f"the Nomizu map reaches {nomizu:.3g}, so the orbit is not an "
            "s-orbit and its curvature closure is not its holonomy algebra")
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


class CertificatePair(NamedTuple):
    """One non-commuting shape pair witnessing a non-flat factor."""

    factor_index: int
    xi_a: np.ndarray
    xi_b: np.ndarray
    commutator: np.ndarray
    norm: float


class CommutingCertificate(NamedTuple):
    """Independent commuting commutators, one per non-flat factor."""

    pairs: tuple = ()           # of CertificatePair
    flat_factors: tuple = ()    # indices of the flat factors
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
    pairs, flat = [], []
    for i, fac in enumerate(verdict.factors):
        cols = fac.subspace.basis            # (K, d) nu-frame coords
        fops = np.einsum("ka,kij->aij", cols, ops)
        a, b = np.triu_indices(cols.shape[1], 1)
        coms = fops[a] @ fops[b] - fops[b] @ fops[a]
        norms = np.linalg.norm(coms, axis=(1, 2))
        if not norms.size or norms.max() <= M.tols.rank:
            flat.append(i)
            continue
        best = int(np.argmax(norms))    # first maximum in a < b order
        xi_a, xi_b = np.einsum("ka,kij->aij", cols[:, [a[best], b[best]]],
                               M.normal_frame)
        pairs.append(CertificatePair(
            factor_index=i, xi_a=xi_a, xi_b=xi_b,
            commutator=coms[best].copy(), norm=float(norms[best])))
    if not pairs:
        return CommutingCertificate(flat_factors=tuple(flat))
    stacked = np.stack([p.commutator.ravel() / p.norm for p in pairs])
    n = M.dim
    cs = stacked.reshape(-1, n, n)
    a, b = np.triu_indices(len(cs), 1)
    coms = (cs[a] @ cs[b] - cs[b] @ cs[a]).reshape(len(a), 1, n * n)
    # each squared norm as the 2-D norm forms it, one dot per pair
    sq = (coms @ coms.transpose(0, 2, 1))[:, 0, 0]
    return CommutingCertificate(
        pairs=tuple(pairs), flat_factors=tuple(flat),
        independent=rank_reveal(stacked.T, M.tols.rank)[3] == len(pairs),
        max_pairwise_commutator=float(np.sqrt(np.max(sq, initial=0.0))))


class LoopProbeResult(NamedTuple):
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
    unless count is an integer >= 1, and NotApplicable when dim M < 2,
    where no loop spans a square.
    """
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or count < 1):
        raise InvalidInput(
            f"loop count must be an integer >= 1, got {count!r}")
    if M.dim < 2:
        raise NotApplicable("loops need an orbit of dimension >= 2")
    # transport is imported here: the other analyses never load it
    from .transport import square_loop_returns
    if algebra is None:
        algebra = holonomy_algebra(M)
    # the pairs still missing come from one draw (the stream of one loop
    # at a time) until count are kept or 4 count + 8 drawn; a c2 within
    # 1e-8 of the line of c1 drops its pair.  All loops close as one stack
    rng = np.random.default_rng(seed)
    pairs, drawn = np.zeros((0, 2, M.dim)), 0
    while len(pairs) < count and drawn < 4 * count + 8:
        c = rng.standard_normal((min(count - len(pairs),
                                     4 * count + 8 - drawn), 2, M.dim))
        drawn += len(c)
        c1 = c[:, 0] / _row_norms(c[:, 0])[:, None]
        c2 = c[:, 1] - (c[:, 1, None] @ c1[:, :, None])[:, 0] * c1
        nrm = _row_norms(c2)
        keep = nrm >= 1e-8
        c2 = c2 / np.where(keep, nrm, 1.0)[:, None]
        pairs = np.concatenate([pairs, np.stack([c1, c2], 1)[keep]])
    xs, ys = np.einsum("lci,ijk->cljk", pairs, M.m_generators)
    logs = orthogonal_log(square_loop_returns(M, xs, ys, loop_radius))
    flat = logs.reshape(len(logs), M.codim ** 2, 1)
    resid = (flat - algebra.space.project(flat))[:, :, 0]
    nrm = _row_norms(flat[:, :, 0])
    kept = nrm >= 1e-12
    worst = float(np.max(_row_norms(resid) / np.where(kept, nrm, 1.0),
                         where=kept, initial=0.0))
    raw = skew_span(logs, acting_dim=M.codim, tol=M.tols.rank)
    return LoopProbeResult(span=bracket_closure(raw), raw_dim=raw.dim,
                           logs=logs, containment_residual=worst,
                           loop_radius=loop_radius)
