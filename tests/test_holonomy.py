"""Curvature endomorphisms, holonomy algebra, verdicts, loop probes."""

import numpy as np
import pytest

from normholo.errors import InvalidInput, NotApplicable
from normholo.holonomy import (SLICE_TOL, adapted_curvature, analyze,
                               cartan_comparison, commuting_certificate,
                               holonomy_algebra, loop_holonomy_probe,
                               position_fixed_residual,
                               slice_holonomy_distance,
                               symmetric_system_residual)
from normholo.kernels import matrix_exp
from normholo.liealg import (bracket_closure, invariant_decomposition,
                             skew_span)
from normholo.linalg import rank_reveal, subspace_distance
from normholo.orbit import build_orbit, shape_operator, shape_operators
from normholo.report import parse_point_spec, parse_rep_spec
from normholo.srep import CartanCurvature, SymmetricPairRep, frame_action


@pytest.fixture(scope="module")
def verdicts(veronese, product_orbit, a2_orbit):
    out = {n: analyze(veronese(n)) for n in (2, 3, 4)}
    out["product"] = analyze(product_orbit)
    out["a2"] = analyze(a2_orbit)
    return out


def _tensor(curv):
    k = curv.normal_dim
    return (curv.factor @ curv.factor.T).reshape(k, k, k, k)


def test_curvature_symmetries(v3):
    curv = adapted_curvature(v3)
    assert curv.normal_dim == v3.codim
    t = _tensor(curv)
    assert abs(curv.norm() - np.linalg.norm(t)) <= 1e-13 * curv.norm()
    residuals = {
        "skew_first_pair": t + t.transpose(1, 0, 2, 3),
        "skew_second_pair": t + t.transpose(0, 1, 3, 2),
        "pair_symmetry": t - t.transpose(2, 3, 0, 1),
        "first_bianchi": (t + t.transpose(1, 2, 0, 3)
                          + t.transpose(2, 0, 1, 3)),
    }
    for name, resid in residuals.items():
        assert np.linalg.norm(resid) < 1e-9 * (1.0 + curv.norm()), name


def _slice_span(curv, tol=1e-8):
    # the curvature endomorphisms t[a, b]^T, a < b, as the span was
    # formed from the K^4 tensor: norm prefilter, then skew_span
    t = _tensor(curv)
    k = curv.normal_dim
    a, b = np.triu_indices(k, 1)
    endos = np.transpose(t[a, b], (0, 2, 1))
    scale = max(1.0, curv.norm())
    keep = [e for e in endos if np.linalg.norm(e) > tol * scale]
    return skew_span(keep, acting_dim=k, tol=tol)


def _span_distance(got, want):
    assert got.dim == want.dim
    return subspace_distance(got.space, want.space)


@pytest.mark.parametrize("name", [3, 4, "product", "a2"])
def test_factor_span_matches_tensor_slices(veronese, product_orbit, a2_orbit,
                                           name):
    m = veronese(name) if isinstance(name, int) \
        else {"product": product_orbit, "a2": a2_orbit}[name]
    curv = adapted_curvature(m)
    k = curv.normal_dim
    f = curv.factor
    got = skew_span((f * np.linalg.norm(f, axis=0)).T.reshape(-1, k, k),
                    acting_dim=k)
    want = _slice_span(curv)
    assert _span_distance(got, want) <= 1e-10
    assert _span_distance(holonomy_algebra(m),
                          bracket_closure(want)) <= 1e-10
    assert (got.dim == 0) == (name == "a2")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_dimension(veronese, n):
    alg = holonomy_algebra(veronese(n))
    assert alg.dim == n * (n - 1) // 2


def test_flat_orbit_algebra(a2_orbit):
    assert holonomy_algebra(a2_orbit).dim == 0


def test_position_direction_is_fixed(v3):
    alg = holonomy_algebra(v3)
    assert position_fixed_residual(v3, alg) < 1e-12


def test_verdict_surface_orbit(verdicts):
    v = verdicts[2]
    assert v.rank == 1
    assert v.factor_dims == (2,)
    assert v.factors[0].transitive
    assert v.conjecture_class == "transitive"
    assert v.bound_satisfied


@pytest.mark.parametrize("n", [3, 4])
def test_verdict_projective_signature(verdicts, n):
    v = verdicts[n]
    assert v.rank == 1
    assert v.factor_dims == (n * (n + 1) // 2 - 1,)
    assert v.factors[0].algebra_dim == n * (n - 1) // 2
    assert not v.factors[0].transitive
    assert v.conjecture_class == "s-orbit-compatible"
    assert v.bound_satisfied


def test_verdict_product(verdicts):
    v = verdicts["product"]
    assert v.rank == 2
    assert v.factor_dims == (2, 2)
    assert v.factor_count == 2
    assert v.bound_satisfied          # 2 factors vs dim 4 orbit
    assert v.conjecture_class == "s-orbit-compatible"


def test_verdict_flat(verdicts):
    v = verdicts["a2"]
    assert v.algebra.dim == 0
    assert v.rank == v.orbit.codim
    assert v.factor_dims == ()
    assert v.conjecture_class == "s-orbit-compatible"


@pytest.mark.parametrize("rep,point,dims", [
    ("sl-so:4", "diag:1,1,-1,-1", (2, 2)),
    ("sl-so:5", "diag:3,3,-2,-2,-2", (5, 2)),
    ("sl-so:6", "diag:1,1,1,-1,-1,-1", (5, 5)),
    ("sl-so:6", "diag:2,2,-1,-1,-1,-1", (9, 2)),
    ("sl-so:5", "diag:2,2,2,-3,-3", (5, 2)),
    ("sl-so:2", "diag:1,-1", ()),
])
def test_verdict_rank_one_s_orbits(rep, point, dims):
    # Grassmannians and the circle: rank one, not transitive, and the
    # holonomy is the slice representation
    r = parse_rep_spec(rep)
    v = analyze(build_orbit(r, parse_point_spec(r, point)))
    assert v.rank == 1
    assert v.factor_dims == dims
    assert v.slice_distance < 1e-12
    assert v.conjecture_class == "s-orbit-compatible"


def test_repeated_eigenvalue_orbits_never_violation():
    # every orbit of sl-so:r is an s-orbit, degenerate ones included
    rng = np.random.default_rng(12)
    for _ in range(24):
        r = int(rng.integers(3, 6))
        # 2..r-1 distinct values, each used at least once
        d = int(rng.integers(2, r))
        labels = np.concatenate([np.arange(d), rng.integers(0, d, r - d)])
        values = rng.standard_normal(d)[rng.permutation(labels)]
        m = build_orbit(SymmetricPairRep.for_size(r),
                        np.diag(values - values.mean()))
        v = analyze(m, seed=int(rng.integers(100)))
        assert v.conjecture_class != "violation-candidate", values


def _partitions(n, largest=None):
    """The partitions of n, each with its parts in descending order."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _slice_image(M):
    """Span of the stabilizer's frame action on nu_v."""
    images = frame_action(M.stabilizer, M.normal_frame)
    return skew_span(0.5 * (images - images.transpose(0, 2, 1)),
                     acting_dim=M.codim, tol=M.tols.rank)


def _assert_slice_representation(M, patterns):
    # the closed form (Heintze-Olmos 1992): on an s-orbit the normal
    # holonomy is the slice representation.  At a point of sl-so:r whose
    # eigenvalues have multiplicities (r_1, ..., r_k) that is SO(r_i) on
    # Sym0(r_i) for each r_i, and a product adds block by block
    parts = [ri for p in patterns for ri in p]
    v = analyze(M)
    assert v.rank == sum(len(p) - 1 for p in patterns)
    assert sorted((f.dim, f.algebra_dim, f.transitive) for f in v.factors) \
        == sorted((ri * (ri + 1) // 2 - 1, ri * (ri - 1) // 2, ri == 2)
                  for ri in parts if ri >= 2)
    assert v.algebra.dim == sum(ri * (ri - 1) // 2 for ri in parts)
    assert v.conjecture_class == ("transitive" if patterns == [(2, 1)]
                                  else "s-orbit-compatible")
    assert v.slice_distance <= SLICE_TOL
    # the curvature span and the slice image are already Lie algebras:
    # closing either adds no direction
    for span in (v.algebra, _slice_image(M)):
        assert _span_distance(bracket_closure(span), span) <= 1e-12


# every multiplicity pattern with k >= 2 distinct eigenvalues, r = 2..8,
# with sorted eigenvalues drawn in turn from one generator; the draw of
# (3, 2, 1, 1, 1) puts two of them 0.05% of the spread apart
_PATTERNS = [p for r in range(2, 9) for p in _partitions(r) if len(p) >= 2]
_RNG = np.random.default_rng(0)
_PATTERN_VALUES = [np.repeat(np.sort(_RNG.standard_normal(len(p))), p)
                   for p in _PATTERNS]


@pytest.mark.parametrize("pattern, values", zip(_PATTERNS, _PATTERN_VALUES),
                         ids=[",".join(map(str, p)) for p in _PATTERNS])
def test_verdict_is_the_slice_representation(pattern, values):
    assert len(_PATTERNS) == 58
    M = build_orbit(SymmetricPairRep.for_size(len(values)),
                    np.diag(values - values.mean()))
    _assert_slice_representation(M, [pattern])


@pytest.mark.parametrize("rep, point, patterns", [
    ("product:sl-so:3,sl-so:4", "diag:1,1,-2;diag:2,2,-1,-3",
     [(2, 1), (2, 1, 1)]),
    ("product:sl-so:4,sl-so:3", "veronese;diag:1,0,-1", [(3, 1), (1, 1, 1)]),
])
def test_product_verdict_is_the_slice_representation(rep, point, patterns):
    r = parse_rep_spec(rep)
    _assert_slice_representation(build_orbit(r, parse_point_spec(r, point)),
                                  patterns)


@pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4])
def test_curvature_is_ranked_at_its_own_scale(gap):
    # eigenvalues 0.9 and 0.9 + gap: the curvature that ties them is of
    # order gap, and its square fell below the rank threshold
    d = np.array([0, 0, 0, 0.9, 0.9, 0.9 + gap, 1.07, 1.65])
    M = build_orbit(SymmetricPairRep.for_size(8), np.diag(d - d.mean()))
    _assert_slice_representation(M, [(3, 2, 1, 1, 1)])


_GAP_POINTS = [
    "diag:" + ",".join(map(str, [0, 0, 0, 0.9, 0.9, 0.9 + g, 1.07, 1.65]))
    for g in (1e-2, 1e-3, 1e-4)]


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:4", "veronese"), ("sl-so:5", "veronese"), ("sl-so:6", "veronese"),
    ("product:sl-so:3,sl-so:4", "veronese;veronese")]
    + [("sl-so:8", p) for p in _GAP_POINTS])
def test_curvature_rank_is_decided_once(rep_spec, point_spec):
    # the factor keeps exactly the singular triples of C that
    # rank_reveal keeps, and the algebra's basis starts with the
    # normalized skew parts of its columns: no second rank decision on
    # the same data
    rep = parse_rep_spec(rep_spec)
    M = build_orbit(rep, parse_point_spec(rep, point_spec))
    c = CartanCurvature.commutators(shape_operators(M))
    f = adapted_curvature(M).factor
    assert f.shape[1] == rank_reveal(c, M.tols.rank)[3] > 0
    k = M.codim
    skew = f.T.reshape(-1, k, k)
    skew = (skew - skew.transpose(0, 2, 1)).reshape(-1, k * k).T
    basis = holonomy_algebra(M).space.basis
    np.testing.assert_allclose(basis[:, :f.shape[1]],
                               skew / np.linalg.norm(skew, axis=0),
                               rtol=0, atol=1e-12)


def _principal_so3_in_so5():
    # SO(3) conjugating Sym0(3), written in the frame of Sym0(3): the
    # five-dimensional irrep, as skew 5 x 5 generators
    base = SymmetricPairRep.for_size(3)
    e, ls = base.carrier_frame, base.generators
    g = (np.einsum("aij,kjl,bli->kab", e, ls, e)
         - np.einsum("aij,bjl,kli->kab", e, e, ls))
    return g / np.linalg.norm(g, axis=(1, 2), keepdims=True)


def _so2_so2_in_so4():
    gens = SymmetricPairRep.for_size(4).generators
    return np.array([x for x in gens if not x[:2, 2:].any()])


@pytest.mark.parametrize("r, generators", [
    (5, _principal_so3_in_so5()), (4, _so2_so2_in_so4())],
    ids=["so3-in-so5", "so2xso2-in-so4"])
def test_verdict_refuses_orbits_that_are_not_s_orbits(r, generators):
    # on these subgroup orbits the Nomizu map is not zero, so the
    # curvature closure is not the holonomy algebra
    rep = SymmetricPairRep(
        sizes=(r,), carrier_frame=SymmetricPairRep.for_size(r).carrier_frame,
        generators=generators)
    rng = np.random.default_rng(3)
    for _ in range(2):
        a = rng.standard_normal((r, r))
        a = a + a.T
        M = build_orbit(rep, a - np.trace(a) / r * np.eye(r))
        assert np.abs(frame_action(M.m_generators, M.normal_frame)).max() > 1
        with pytest.raises(NotApplicable, match="not an s-orbit"):
            analyze(M)


def test_residuals_tiny(verdicts):
    for key in (2, 3, 4, "product"):
        v = verdicts[key]
        assert v.position_residual < 1e-12
        assert v.symmetric_residual < 1e-12


def _pullback_residual(curv, algebra, seed=0):
    # the K^5 reference: contract the leading slot of the K^4 tensor
    # with h and cycle it to the back, four times per draw
    rng = np.random.default_rng(seed)
    t = _tensor(curv)
    k = curv.normal_dim
    worst = 0.0
    for _ in range(6):
        c = rng.standard_normal(algebra.dim)
        c /= np.linalg.norm(c)
        h = matrix_exp(np.einsum("p,pij->ij", c, algebra.basis))
        pulled = t
        for _ in range(4):
            pulled = pulled.reshape(k, -1).T @ h
        worst = max(worst, float(np.linalg.norm(pulled.reshape(t.shape) - t)
                                 / np.linalg.norm(t)))
    return worst


def _wrong_algebra(k):
    bad = np.zeros((k, k))
    bad[0, 1], bad[1, 0] = 1.0, -1.0
    return skew_span([bad])


@pytest.mark.parametrize("name", [2, 3, 4, "product"])
def test_symmetric_residual_matches_pullback(verdicts, name):
    v = verdicts[name]
    for seed in (0, 3):
        got = symmetric_system_residual(v.curvature, v.algebra, seed=seed)
        want = _pullback_residual(v.curvature, v.algebra, seed=seed)
        assert abs(got - want) <= 1e-13
    wrong = _wrong_algebra(v.curvature.normal_dim)
    got = symmetric_system_residual(v.curvature, wrong)
    assert abs(got - _pullback_residual(v.curvature, wrong)) <= 1e-13


def _six_qr_residual(curv, algebra, seed=0):
    # one draw, one exponential and one QR of [F' F] at a time: with
    # [F' F] = Q [R1 R2] the gap ||F' F'^T - F F^T|| is ||R1 R1^T - R2 R2^T||
    f = curv.factor
    k, m = curv.normal_dim, f.shape[1]
    cols = f.T.reshape(m, k, k)
    worst = 0.0
    for c in np.random.default_rng(seed).standard_normal((6, algebra.dim)):
        c /= np.linalg.norm(c)
        h = matrix_exp(np.einsum("p,pij->ij", c, algebra.basis))
        pulled = (h.T @ cols @ h).reshape(m, k * k).T
        tri = np.linalg.qr(np.hstack([pulled, f]), mode="r")
        r1, r2 = tri[:, :m], tri[:, m:]
        worst = max(worst, float(np.linalg.norm(r1 @ r1.T - r2 @ r2.T)
                                 / max(curv.norm(), 1e-30)))
    return worst


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:5", "veronese"),
    ("sl-so:6", "veronese"),
    ("sl-so:7", "veronese"),
    ("product:sl-so:3,sl-so:3", "veronese;veronese"),
    ("product:sl-so:4,sl-so:4", "veronese;veronese"),
])
def test_symmetric_residual_matches_six_qr(rep_spec, point_spec):
    m = _spec_orbit(rep_spec, point_spec)
    curv, alg = adapted_curvature(m), holonomy_algebra(m)
    for seed in range(4):
        got = symmetric_system_residual(curv, alg, seed=seed)
        assert abs(got - _six_qr_residual(curv, alg, seed=seed)) <= 1e-15


def test_symmetric_residual_detects_wrong_algebra(v3):
    # curvature is not invariant under an arbitrary rotation plane
    resid = symmetric_system_residual(adapted_curvature(v3),
                                      _wrong_algebra(v3.codim))
    assert resid > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slice_matches_holonomy(veronese, n):
    m = veronese(n)
    dist = slice_holonomy_distance(m, holonomy_algebra(m))
    assert dist < 1e-7
    assert analyze(m).slice_distance == dist


def test_cartan_comparison_on_homothetic_orbits(veronese):
    for n in (3, 4):
        cmp = cartan_comparison(veronese(n))
        assert abs(cmp.beta - np.sqrt(n / (n + 1.0))) < 1e-10
        assert cmp.residual < 1e-6
        assert cmp.tensor_norm > 0.0


def test_cartan_comparison_requires_homothecy():
    m = build_orbit(SymmetricPairRep.for_size(4),
                    np.diag([3.0, 1.0, -1.0, -3.0]))
    with pytest.raises(NotApplicable):
        cartan_comparison(m)


def test_commuting_certificate_single_factor(v3, verdicts):
    cert = commuting_certificate(v3, verdicts[3])
    assert len(cert.pairs) == 1
    assert not cert.flat_factors
    assert cert.independent
    assert cert.max_pairwise_commutator <= 1e-8


def test_commuting_certificate_product(product_orbit, verdicts):
    cert = commuting_certificate(product_orbit, verdicts["product"])
    assert len(cert.pairs) == 2
    assert cert.independent
    assert cert.max_pairwise_commutator <= 1e-8
    assert {p.factor_index for p in cert.pairs} == {0, 1}


def _certificate_by_loop(m, verdict, tol=1e-8):
    # the pair search as a double loop, two einsums per pair, keeping
    # the first strict maximum
    ops = shape_operators(m)
    best_norms, flat = [], []
    for i, fac in enumerate(verdict.factors):
        cols = fac.subspace.basis
        best = None
        for a in range(cols.shape[1]):
            opa = np.einsum("k,kij->ij", cols[:, a], ops)
            for b in range(a + 1, cols.shape[1]):
                opb = np.einsum("k,kij->ij", cols[:, b], ops)
                nrm = float(np.linalg.norm(opa @ opb - opb @ opa))
                if best is None or nrm > best:
                    best = nrm
        if best is None or best <= tol:
            flat.append(i)
        else:
            best_norms.append((i, best))
    return best_norms, flat


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("product:sl-so:4,sl-so:4", "veronese;veronese"),
    ("product:sl-so:3,sl-so:3,sl-so:3", "veronese;veronese;veronese"),
    ("product:sl-so:3,sl-so:4,sl-so:3", "veronese;veronese;veronese"),
    ("sl-so:5", "diag:3,3,-2,-2,-2"),
])
def test_commuting_certificate_matches_loop(rep_spec, point_spec):
    m = _spec_orbit(rep_spec, point_spec)
    verdict = analyze(m)
    cert = commuting_certificate(m, verdict)
    best_norms, flat = _certificate_by_loop(m, verdict)
    assert cert.flat_factors == tuple(flat)
    assert [p.factor_index for p in cert.pairs] == [i for i, _ in best_norms]
    for p, (_, nrm) in zip(cert.pairs, best_norms):
        assert abs(p.norm - nrm) <= 1e-12 * nrm
        a_op, b_op = (shape_operator(m, xi) for xi in (p.xi_a, p.xi_b))
        assert np.linalg.norm(a_op @ b_op - b_op @ a_op - p.commutator) \
            <= 1e-12 * nrm
    # the pairwise commutator of the certificate, one pair at a time
    cs = [p.commutator / p.norm for p in cert.pairs]
    assert cert.max_pairwise_commutator == max(
        (float(np.linalg.norm(ci @ cj - cj @ ci))
         for i, ci in enumerate(cs) for cj in cs[i + 1:]), default=0.0)


def test_commuting_certificate_needs_factors(a2_orbit, verdicts):
    with pytest.raises(InvalidInput):
        commuting_certificate(a2_orbit, verdicts["a2"])


@pytest.mark.parametrize("n,count", [(2, 4), (3, 6)])
def test_loop_probe_recovers_algebra(veronese, n, count):
    m = veronese(n)
    alg = holonomy_algebra(m)
    probe = loop_holonomy_probe(m, count=count, algebra=alg)
    assert probe.span.dim == alg.dim
    assert probe.containment_residual <= 1e-4
    assert probe.logs.shape[0] == count


@pytest.mark.parametrize("n", [2, 3])
def test_loop_probe_logs_exactly_in_algebra(veronese, n):
    # exact transport: the logs leave the curvature algebra by round-off
    probe = loop_holonomy_probe(veronese(n))
    assert probe.containment_residual <= 1e-12


def test_loop_probe_on_flat_normal_bundle(a2_orbit):
    # every loop of a flat normal bundle returns the identity, whose zero
    # log lies in the (zero) curvature algebra
    probe = loop_holonomy_probe(a2_orbit)
    assert probe.logs.shape[0] == 12
    assert probe.span.dim == probe.raw_dim == 0
    assert probe.containment_residual == 0.0


def test_loop_probe_against_an_empty_algebra(v3):
    # a nonzero log is wholly outside the zero algebra
    empty = skew_span([], acting_dim=v3.codim)
    probe = loop_holonomy_probe(v3, count=3, algebra=empty)
    assert abs(probe.containment_residual - 1.0) <= 1e-15


def test_loop_probe_needs_two_dimensions():
    circle = build_orbit(SymmetricPairRep.for_size(2), np.diag([1.0, -1.0]))
    assert circle.dim == 1
    with pytest.raises(NotApplicable, match="dimension"):
        loop_holonomy_probe(circle)


@pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True, False, "3",
                                   np.bool_(True), None])
def test_loop_probe_needs_a_loop(v3, count, monkeypatch):
    import normholo.transport as transport

    def no_loop(*args, **kwargs):
        raise AssertionError("a loop was built")

    # the probe closes all its loops in one square_loop_returns call
    monkeypatch.setattr(transport, "square_loop_returns", no_loop)
    with pytest.raises(InvalidInput, match="count"):
        loop_holonomy_probe(v3, count=count)


def test_verdict_memoized_per_seed():
    m = build_orbit(SymmetricPairRep.for_size(4), np.diag([3.0, -1, -1, -1]))
    v0 = analyze(m)
    assert analyze(m) is v0
    v1 = analyze(m, seed=1)
    assert v1 is not v0
    assert analyze(m, seed=1) is v1
    assert analyze(m, seed=0) is v0
    # the seeds share one curvature tensor and one algebra
    assert v1.curvature is v0.curvature
    assert v1.algebra is v0.algebra is holonomy_algebra(m)


def _spec_orbit(rep_spec, point_spec):
    rep = parse_rep_spec(rep_spec)
    return build_orbit(rep, parse_point_spec(rep, point_spec))


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:6", "veronese"),
    ("sl-so:7", "veronese"),
    ("product:sl-so:4,sl-so:4", "veronese;veronese"),
    ("sl-so:4", "random-regular:0"),
    ("sl-so:5", "random-regular:0"),
    ("sl-so:3", "diag:1,0,-1"),
    ("sl-so:4", "veronese"),
    ("sl-so:5", "veronese"),
    ("product:sl-so:3,sl-so:3", "veronese;veronese"),
])
def test_decomposition_is_orthogonal_and_invariant(rep_spec, point_spec):
    # [fixed | factors...] is an orthogonal K x K matrix and each factor
    # projector commutes with the holonomy algebra
    algebra = holonomy_algebra(_spec_orbit(rep_spec, point_spec))
    dec = invariant_decomposition(algebra)
    q = np.hstack([dec.fixed.basis] + [f.basis for f in dec.factors])
    k = algebra.acting_dim
    assert q.shape == (k, k)
    assert np.linalg.norm(q.T @ q - np.eye(k), 2) <= 1e-12
    mats = algebra.basis
    for f in dec.factors:
        proj = f.basis @ f.basis.T
        assert np.abs(mats @ proj - proj @ mats).max() <= 1e-10


def test_decomposition_veronese_sl_so_9(veronese):
    # RP^8 in the unit sphere of traceless symmetric 9 x 9 matrices: the
    # position is fixed and so(8) acts irreducibly on the other 35
    # normal directions
    algebra = holonomy_algebra(veronese(8))
    dec = invariant_decomposition(algebra)
    assert algebra.dim == 28
    assert dec.rank == 1
    assert dec.factor_dims == (35,)


def test_loop_probe_exponential_calls_do_not_grow_with_count(v3, monkeypatch):
    import normholo.linalg as linalg
    algebra = holonomy_algebra(v3)
    counts = []
    for count in (3, 12):
        calls = []
        real = linalg._expm_core
        monkeypatch.setattr(linalg, "_expm_core",
                            lambda x, real=real: calls.append(x.shape)
                            or real(x))
        probe = loop_holonomy_probe(v3, count=count, algebra=algebra)
        monkeypatch.undo()
        assert len(probe.logs) == count
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3


def _curvature_rotated_out_of_slice(M):
    """The orbit's curvature factor with its first column turned, at its
    own norm, onto a seeded skew direction orthogonal to the slice
    image: still orthogonal to the other columns, but no longer in it."""
    curv = adapted_curvature(M)
    k = curv.normal_dim
    y = np.random.default_rng(0).standard_normal((k, k))
    y = (y - y.T).ravel()
    y -= _slice_image(M).space.project(y)
    f = curv.factor.copy()
    f[:, 0] = np.linalg.norm(f[:, 0]) / np.linalg.norm(y) * y
    return curv._replace(factor=f)


def test_curvature_span_outside_the_slice_image_fails(monkeypatch, capsys):
    # the verdict does not close its curvature span, so a span that is
    # not the slice image is caught by the slice distance, not repaired
    import normholo.holonomy as holonomy
    from normholo.cli import main
    from normholo.report import ScenarioConfig, run_scenario
    monkeypatch.setattr(holonomy, "adapted_curvature",
                        _curvature_rotated_out_of_slice)
    report = run_scenario(ScenarioConfig.from_dict({
        "rep": "sl-so:5", "point": "veronese",
        "analyses": ["holonomy", "bound"]}))
    assert report.analyses["holonomy"]["ok"] is False
    assert report.analyses["bound"]["ok"] is False
    assert report.analyses["holonomy"]["sliceHolonomyDistance"] > SLICE_TOL
    rc = main(["analyze", "--rep", "sl-so:5", "--point", "veronese",
               "--do", "orbit,holonomy,bound"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("config, closures", [
    ({"rep": "sl-so:7", "point": "veronese",
      "analyses": ["orbit", "holonomy", "bound"]}, 0),
    ({"rep": "product:sl-so:4,sl-so:4", "point": "veronese;veronese",
      "analyses": ["orbit", "holonomy", "bound"]}, 0),
    ({"rep": "sl-so:4", "point": "veronese", "analyses": ["tube"],
      "curve": [[1, 0.3], [4, 0.2]], "seed": 1}, 0),
    ({"rep": "sl-so:4", "point": "diag:3,1,-1,-3",
      "analyses": ["coxeter"]}, 0),
    ({"analyses": ["veronese-facts"], "n": 4}, 0),
    ({"rep": "sl-so:4", "point": "veronese",
      "analyses": ["orbit", "holonomy", "bound", "loop-probe"]}, 1),
], ids=["verdict-veronese", "verdict-product", "tube", "coxeter",
        "veronese-facts", "loop-probe"])
def test_only_the_loop_probe_closes(config, closures, monkeypatch):
    # the curvature span is the verdict's algebra as it stands; the loop
    # probe's span of loop logs is the one span still bracket-closed
    import normholo.holonomy as holonomy
    from normholo.report import ScenarioConfig, run_scenario
    calls = []
    real = holonomy.bracket_closure
    monkeypatch.setattr(holonomy, "bracket_closure",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    report = run_scenario(ScenarioConfig.from_dict(config))
    assert report.passed, report.body()
    assert len(calls) == closures


def test_loop_probe_takes_numpy_integer_counts(v3):
    probe = loop_holonomy_probe(v3, count=np.int64(3))
    assert len(probe.logs) == 3
    assert np.array_equal(probe.logs, loop_holonomy_probe(v3, count=3).logs)


def test_loop_probe_stacked_draws_match_one_loop_at_a_time(v3):
    # the loop directions of one stacked draw are the directions the
    # same seed gives drawn one loop at a time
    from normholo.transport import square_loop_returns
    from normholo.linalg import orthogonal_log
    probe = loop_holonomy_probe(v3, count=5, seed=9)
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(5):
        c1 = rng.standard_normal(v3.dim)
        c1 /= np.linalg.norm(c1)
        c2 = rng.standard_normal(v3.dim)
        c2 -= (c2 @ c1) * c1
        pairs.append((c1, c2 / np.linalg.norm(c2)))
    xs, ys = np.einsum("lci,ijk->cljk", np.array(pairs), v3.m_generators)
    logs = orthogonal_log(square_loop_returns(v3, xs, ys, 0.05))
    assert np.array_equal(probe.logs, logs)


def test_loop_probe_replaces_a_rejected_draw_from_the_same_stream(
        v3, monkeypatch):
    # the first pair of the first draw is made parallel, so it is
    # rejected and one more pair is drawn: the loops are those of pairs
    # 1..count of the seed's stream
    import normholo.holonomy as holonomy
    real = np.random.default_rng

    class FirstPairParallel:
        def __init__(self, seed):
            self.rng, self.calls = real(seed), 0

        def standard_normal(self, shape):
            out = self.rng.standard_normal(shape)
            if not self.calls:
                out[0, 1] = 2.0 * out[0, 0]
            self.calls += 1
            return out

    monkeypatch.setattr(holonomy.np.random, "default_rng", FirstPairParallel)
    probe = loop_holonomy_probe(v3, count=4, seed=3)
    monkeypatch.undo()
    want = loop_holonomy_probe(v3, count=5, seed=3)
    assert np.array_equal(probe.logs, want.logs[1:])
