"""Curvature endomorphisms, holonomy algebra, verdicts, loop probes."""

import numpy as np
import pytest

from normholo.errors import InvalidInput, NotApplicable
from normholo.holonomy import (adapted_curvature, analyze, cartan_comparison,
                               commuting_certificate,
                               holonomy_algebra, loop_holonomy_probe,
                               position_fixed_residual,
                               slice_holonomy_distance,
                               symmetric_system_residual)
from normholo.kernels import matrix_exp
from normholo.liealg import (bracket_closure, invariant_decomposition,
                             skew_span)
from normholo.linalg import Subspace, subspace_distance
from normholo.orbit import build_orbit, shape_operator, shape_operators
from normholo.report import parse_point_spec, parse_rep_spec
from normholo.srep import SymmetricPairRep


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
    k = got.acting_dim
    assert got.dim == want.dim
    return subspace_distance(*(
        Subspace(ambient_dim=k * k,
                 basis=span.matrices().reshape(span.dim, k * k).T)
        for span in (got, want)))


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
    assert alg.closed


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
        h = matrix_exp(np.einsum("p,pij->ij", c, algebra.matrices()))
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
    ("sl-so:5", "diag:3,3,-2,-2,-2"),
])
def test_commuting_certificate_matches_loop(rep_spec, point_spec):
    m = _spec_orbit(rep_spec, point_spec)
    verdict = analyze(m)
    cert = commuting_certificate(m, verdict)
    best_norms, flat = _certificate_by_loop(m, verdict)
    assert cert.flat_factors == flat
    assert [p.factor_index for p in cert.pairs] == [i for i, _ in best_norms]
    for p, (_, nrm) in zip(cert.pairs, best_norms):
        assert abs(p.norm - nrm) <= 1e-12 * nrm
        a_op, b_op = (shape_operator(m, xi) for xi in (p.xi_a, p.xi_b))
        assert np.linalg.norm(a_op @ b_op - b_op @ a_op - p.commutator) \
            <= 1e-12 * nrm


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


def test_loop_probe_needs_two_dimensions():
    circle = build_orbit(SymmetricPairRep.for_size(2), np.diag([1.0, -1.0]))
    assert circle.dim == 1
    with pytest.raises(NotApplicable, match="dimension"):
        loop_holonomy_probe(circle)


@pytest.mark.parametrize("count", [0, -1])
def test_loop_probe_needs_a_loop(v3, count, monkeypatch):
    import normholo.holonomy as holonomy

    def no_loop(*args, **kwargs):
        raise AssertionError("a loop was built")

    monkeypatch.setattr(holonomy, "closed_square_loop", no_loop)
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
    mats = algebra.matrices()
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
