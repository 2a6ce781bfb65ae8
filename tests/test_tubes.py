"""Holonomy-tube spectra: formula route, patch route, focal structure."""

import numpy as np
import pytest

from normholo.errors import FocalDegeneracy, InvalidInput, NotApplicable
from normholo.linalg import matrix_exp
from normholo.orbit import build_orbit, sphere_normal_shape_operators
from normholo.report import ScenarioConfig, run_scenario
from normholo.srep import CartanCurvature, SymmetricPairRep
from normholo.transport import (OrbitCurve, exact_transport,
                                exact_transport_vector)
from normholo.tubes import (SAFETY_MARGIN, TubePatch, TubeSpectrum,
                            caustic_rank_check, choose_tube_direction,
                            dupin_check, normal_exponential_differential,
                            normal_exponential_fd_residual,
                            seeded_tube_direction, spectra_agree,
                            tube_spectrum_direct, tube_spectrum_via_formula)

from conftest import traceless_shape_operator


@pytest.fixture(scope="module")
def v3_xi(v3):
    return choose_tube_direction(v3)


@pytest.fixture(scope="module")
def v3_patch(v3, v3_xi):
    spec, patch = tube_spectrum_direct(v3, v3_xi)
    return spec, patch


def test_canonical_direction_spectrum(v3, v3_xi):
    vals = np.sort(np.linalg.eigvalsh(traceless_shape_operator(v3, v3_xi)))
    assert np.allclose(vals, [-0.4, 0.2, 0.2], atol=1e-10)


def test_direction_requires_dim_three(v2):
    with pytest.raises(InvalidInput):
        choose_tube_direction(v2)


def test_direction_requires_homothecy():
    m = build_orbit(SymmetricPairRep.for_size(4),
                    np.diag([3.0, 1.0, -1.0, -3.0]))
    with pytest.raises(InvalidInput):
        choose_tube_direction(m)


def _lstsq_tube_direction(m):
    # the tube-direction solve by numpy's least squares, as a reference
    # for the rank_reveal solve: sum_a c_a A~_a = the (2, n-2) target
    n = m.dim
    target = np.diag([0.5, 0.5] + [-1.0 / (n - 2)] * (n - 2))
    ops = sphere_normal_shape_operators(m)
    ops = ops - (np.trace(ops, axis1=1, axis2=2) / n)[:, None, None] \
        * np.eye(n)
    c = np.linalg.lstsq(ops.reshape(len(ops), -1).T, target.ravel(),
                        rcond=None)[0]
    xi = np.einsum("k,kij->ij", c, m.nbar_frame)
    top = np.max(np.abs(np.linalg.eigvalsh(traceless_shape_operator(m, xi))))
    return (1.0 - SAFETY_MARGIN) / (2.0 * top) * xi


@pytest.mark.parametrize("n", [3, 4])
def test_direction_solve_matches_least_squares(veronese, n):
    m = veronese(n)
    assert np.abs(choose_tube_direction(m)
                  - _lstsq_tube_direction(m)).max() <= 1e-12


def test_seeded_direction_deterministic(v3):
    a = seeded_tube_direction(v3, seed=5)
    assert np.allclose(a, seeded_tube_direction(v3, seed=5))
    top = np.max(np.abs(np.linalg.eigvalsh(traceless_shape_operator(v3, a))))
    assert abs(top - 0.4) < 1e-10      # scaled to the focal-free cap


def test_formula_spectrum_v3(v3, v3_xi):
    s = tube_spectrum_via_formula(v3, v3_xi)
    assert s.source == "formula"
    (h1, m1), (h2, m2) = s.lambda_hats
    assert abs(h1 - 0.25) < 1e-10 and m1 == 2
    assert abs(h2 + 2.0 / 7.0) < 1e-10 and m2 == 1
    assert s.vertical_mult == 2
    assert s.vertical_value == -1.0
    assert s.tube_dim == 5
    assert s.multiplicity_total() == 5
    assert abs(s.mean_term) < 1e-12    # sphere-normal direction


def test_formula_spectrum_v4(v4):
    xi = choose_tube_direction(v4)
    s = tube_spectrum_via_formula(v4, xi)
    (h1, m1), (h2, m2) = s.lambda_hats
    assert abs(h1 - 2.0 / 3.0) < 1e-10 and m1 == 2
    assert abs(h2 + 2.0 / 7.0) < 1e-10 and m2 == 2
    assert s.vertical_mult == 4
    assert s.tube_dim == 8


def test_direct_matches_formula(v3, v3_xi, v3_patch):
    direct, _ = v3_patch
    formula = tube_spectrum_via_formula(v3, v3_xi)
    assert direct.source == "patch"
    assert spectra_agree(formula, direct) <= 1e-4
    # the patch measures the vertical value instead of asserting it
    assert abs(direct.vertical_value + 1.0) < 1e-4


def test_direct_matches_formula_along_curve(v3, v3_xi):
    c = np.array([1.0, 0.4, -0.2])
    c /= np.linalg.norm(c)
    curve = OrbitCurve.from_tangent_coords(v3, [(c, 0.3)], step=1e-3)
    formula = tube_spectrum_via_formula(v3, v3_xi, curve=curve)
    direct, _ = tube_spectrum_direct(v3, v3_xi, curve=curve)
    assert spectra_agree(formula, direct) <= 1e-4
    # transport preserves the clustered spectrum exactly
    assert abs(formula.lambda_hats[0][0] - 0.25) < 1e-8


def test_curve_must_match_orbit(v3, v4, v3_xi):
    c = np.zeros(v4.dim)
    c[0] = 1.0
    wrong = OrbitCurve.from_tangent_coords(v4, [(c, 0.1)])
    with pytest.raises(InvalidInput):
        tube_spectrum_via_formula(v3, v3_xi, curve=wrong)


@pytest.mark.parametrize("route", [tube_spectrum_via_formula,
                                   tube_spectrum_direct])
@pytest.mark.parametrize("with_curve", [False, True])
def test_non_normal_direction_rejected_before_work(v3, route, with_curve,
                                                  monkeypatch):
    import normholo.tubes as tubes

    def no_work(*args, **kwargs):
        raise AssertionError("tube work ran on a non-normal direction")

    monkeypatch.setattr(tubes, "build_orbit", no_work)
    monkeypatch.setattr(tubes, "holonomy_algebra", no_work)
    xi = 0.1 * v3.nbar_frame[0] + 1e-3 * v3.tangent_frame[0]
    curve = OrbitCurve.from_tangent_coords(v3, [(np.eye(v3.dim)[0], 0.2)]) \
        if with_curve else None
    with pytest.raises(InvalidInput, match="normal space"):
        route(v3, xi, curve=curve)


def test_spectra_agree_rejects_multiplicity_mismatch():
    a = TubeSpectrum(lambda_hats=((0.25, 2), (-0.3, 1)), vertical_mult=2,
                     foot_eigenvalues=np.zeros(3), mean_term=0.0,
                     tube_dim=5, source="formula")
    b = TubeSpectrum(lambda_hats=((0.25, 1), (-0.3, 2)), vertical_mult=2,
                     foot_eigenvalues=np.zeros(3), mean_term=0.0,
                     tube_dim=5, source="patch")
    with pytest.raises(InvalidInput):
        spectra_agree(a, b)


def test_focal_direction_raises(v3, v3_xi):
    with pytest.raises(FocalDegeneracy):
        tube_spectrum_via_formula(v3, 5.0 * v3_xi)   # foot eigenvalue hits 1


def test_dupin_constancy(v3, v3_xi, v3_patch):
    _, patch = v3_patch
    res = dupin_check(v3, v3_xi, patch=patch)
    assert res.directions_tested == 2
    assert res.max_hat1_derivative <= 1e-4
    assert res.max_hat2_derivative <= 1e-4


def test_dupin_needs_multiplicity(v3):
    xi = seeded_tube_direction(v3, seed=1)   # three simple eigenvalues
    with pytest.raises(NotApplicable):
        dupin_check(v3, xi)


def test_caustic_kernel(v3, v3_xi, v3_patch):
    _, patch = v3_patch
    res = caustic_rank_check(v3, v3_xi, patch=patch)
    assert res.kernel_dim == 2
    assert res.kernel_angle_to_e1 <= 1e-3
    assert res.shift == 2.0                  # 1 above the vertical -1


def test_tube_without_fiber(a2_orbit):
    # on a flat normal bundle the holonomy moves xi nowhere (m3 = 0), so
    # neither route has a vertical eigenvalue
    xi = seeded_tube_direction(a2_orbit, seed=2)
    formula = tube_spectrum_via_formula(a2_orbit, xi)
    direct, patch = tube_spectrum_direct(a2_orbit, xi)
    assert formula.vertical_mult == direct.vertical_mult == patch.m3 == 0
    assert direct.vertical_value == -1.0
    assert direct.values_with_vertical() == direct.lambda_hats
    assert len(direct.lambda_hats) == direct.tube_dim == 3
    assert spectra_agree(formula, direct) <= 1e-12
    # with no vertical -1 the shift lifts only the horizontal values
    hats = [v for v, _ in direct.lambda_hats]
    res = caustic_rank_check(a2_orbit, xi, patch=patch)
    assert res.shift == max(0.0, -min(hats)) + 1.0 < 2.0
    assert res.kernel_dim == 1 and res.kernel_angle_to_e1 <= 1e-8


@pytest.mark.parametrize("rep, point", [
    ("sl-so:4", "random-regular:3"),
    ("product:sl-so:2,sl-so:2", "veronese;veronese"),
])
def test_seeded_tube_without_fiber_passes(rep, point):
    cfg = ScenarioConfig.from_dict({"rep": rep, "point": point,
                                    "analyses": ["tube"],
                                    "direction": "seed:2"})
    tube = run_scenario(cfg).analyses["tube"]
    assert tube["ok"], tube
    assert tube["formula"]["verticalMult"] == 0
    assert tube["direct"]["verticalMult"] == 0
    assert tube["agreementGap"] <= 1e-12


def test_normal_exponential_differential(v3, v3_xi):
    d = normal_exponential_differential(v3, v3_xi)
    svals = np.sort(np.linalg.svd(d)[1])
    assert np.allclose(svals, [0.8, 0.8, 1.4], atol=1e-10)
    assert normal_exponential_fd_residual(v3, v3_xi) <= 1e-6


EQUIVALENCE_TOL = 1e-6    # hat-value agreement in equivalence_one_check


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


def test_equivalence_biconditional(v3, v3_xi, v3_patch):
    direct, _ = v3_patch
    formula = tube_spectrum_via_formula(v3, v3_xi)
    assert equivalence_one_check([formula, direct])


def _synthetic(h1, h2):
    return TubeSpectrum(lambda_hats=((h1, 2), (h2, 1)), vertical_mult=2,
                        foot_eigenvalues=np.zeros(3), mean_term=0.0,
                        tube_dim=5, source="formula")


def test_equivalence_discriminates():
    base = _synthetic(0.25, -0.28)
    assert not equivalence_one_check([base, _synthetic(0.25, -0.50)])
    assert not equivalence_one_check([base, _synthetic(0.40, -0.28)])
    assert equivalence_one_check([base, _synthetic(0.40, -0.50)])
    assert equivalence_one_check([base, _synthetic(0.25, -0.28)])


@pytest.mark.parametrize("raw", [
    {"rep": "sl-so:4", "direction": "seed:131"},
    {"rep": "sl-so:5", "direction": "seed:59"},
    {"rep": "sl-so:4", "step": 1e-3,
     "curve": [[2, 0.2289646992846347], [1, 0.2710353007153653]]},
])
def test_tube_chart_keeps_rank(raw):
    # fiber directions and chart frame come from singular vectors, so the
    # chart does not lose rank with an unlucky basis of the algebra
    config = ScenarioConfig.from_dict(
        {"point": "veronese", "analyses": ["tube"], **raw})
    tube = run_scenario(config).analyses["tube"]
    assert "error" not in tube
    assert tube["ok"] is True
    assert tube["agreementGap"] <= 1e-4


def _chart_point(patch, params):
    """One tube point built the per-point way: a one-arc curve, its
    exact transport coefficients and a fiber exponential."""
    foot = patch.foot
    u, w = params[:patch.n], params[patch.n:]
    seg = OrbitCurve.from_tangent_coords(foot, [(u, 1.0)])
    coords = exact_transport(seg) @ patch.xi1_coords
    coords = matrix_exp(np.einsum("j,jkl->kl", w, patch.fiber_dirs)) @ coords
    g = seg.group_path_end()
    p = g @ foot.point @ g.T
    radial = g @ foot.normal_vector(coords) @ g.T
    return p + radial, p, radial


def _curved_tube_patch(v3, v3_xi):
    """The patch of the curved sl-so:4 tube in test_tube_chart_keeps_rank."""
    curve = OrbitCurve(orbit=v3, step=1e-3, segments=(
        (v3.rep.generators[2], 0.2289646992846347),
        (v3.rep.generators[1], 0.2710353007153653)))
    return TubePatch(v3, v3_xi, curve=curve)


@pytest.mark.parametrize("which", ["v3", "curved"])
def test_chart_matches_per_point_construction(which, v3, v3_xi, v3_patch):
    patch = v3_patch[1] if which == "v3" else _curved_tube_patch(v3, v3_xi)
    assert patch.m3 > 0
    rng = np.random.default_rng(3)
    params = 0.02 * rng.standard_normal((6, patch.n_axes))
    params[1, :patch.n] = 0.0          # fiber only
    params[2, patch.n:] = 0.0          # foot only
    params[3] = 0.0                    # the chart origin
    got = patch.evaluate(params)
    for i, row in enumerate(params):
        for stack, want in zip(got, _chart_point(patch, row)):
            assert np.max(np.abs(stack[i] - want)) <= 1e-14
    # at the origin the chart is exactly the foot and the radial vector
    assert np.array_equal(got[1][3], patch.foot.point)
    assert np.array_equal(got[2][3], patch.foot.normal_vector(
        patch.xi1_coords))


def test_chart_matches_curve_endpoint_and_transport(v3, v3_xi, v3_patch):
    # foot coordinates only: the fiber coordinates of the chart are 0
    _, patch = v3_patch
    c = np.array([[0.6, -0.3, 0.2], [0.0, 1.0, -0.5]])
    delta = 1e-3
    params = np.zeros((4, patch.n_axes))
    params[:, :patch.n] = delta * np.concatenate([c, -c])
    q, _, _ = patch.evaluate(params)
    for i, coeffs in enumerate(np.concatenate([c, -c])):
        seg = OrbitCurve.from_tangent_coords(v3, [(coeffs, delta)])
        want = seg.endpoint() + exact_transport_vector(seg, v3_xi)
        assert np.max(np.abs(q[i] - want)) <= 1e-14


def test_patch_stencils_take_three_exponential_calls(v3, v3_xi,
                                                     monkeypatch):
    import normholo.linalg as linalg
    patch = TubePatch(v3, v3_xi)
    assert patch.m3 > 0
    calls = []
    real = linalg._expm_core
    monkeypatch.setattr(linalg, "_expm_core",
                        lambda x: calls.append(x.shape) or real(x))
    patch._axis_stencils               # computed when first read
    assert len(calls) <= 3


@pytest.mark.parametrize("raw, checks, exps, rebuilds", [
    # the transport-loops benchmark's curved tube at seed 1: canonical
    # direction, Dupin and caustic; two exponentials are the transport's
    ({"rep": "sl-so:4", "point": "veronese", "seed": 1,
      "curve": [[1, 0.31948674738744653], [4, 0.18051325261255347]]},
     {"dupin", "caustic", "normalExponential"}, 5, 1),
    # a sweep-small seeded tube: no Dupin or caustic, no displaced feet
    ({"rep": "sl-so:4", "point": "veronese", "seed": 1,
      "direction": "seed:1"}, {"normalExponential"}, 3, 0),
])
def test_tube_checks_read_one_chart_evaluation(raw, checks, exps, rebuilds,
                                               monkeypatch):
    import normholo.linalg as linalg
    import normholo.tubes as tubes
    calls = []

    def record(owner, name):
        real = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    record(TubePatch, "evaluate")
    record(linalg, "_expm_core")
    record(tubes, "traceless_spectra_at")
    config = ScenarioConfig.from_dict({**raw, "analyses": ["tube"]})
    tube = run_scenario(config).analyses["tube"]
    assert tube["ok"] and checks <= set(tube)
    assert tube["normalExponential"]["fdResidual"] <= 1e-12
    assert calls.count("evaluate") == 1
    assert calls.count("_expm_core") == exps
    assert calls.count("traceless_spectra_at") == rebuilds


@pytest.mark.parametrize("shape", [(5,), (2, 4), (2, 6), (1, 1, 5)])
def test_evaluate_rejects_bad_parameter_shapes(v3_patch, shape):
    _, patch = v3_patch
    assert patch.n_axes == 5
    with pytest.raises(InvalidInput):
        patch.evaluate(np.zeros(shape))


def test_seeded_tube_needs_a_sphere_normal_direction():
    config = ScenarioConfig.from_dict({"rep": "sl-so:2", "point": "veronese",
                                       "analyses": ["tube"],
                                       "direction": "seed:1"})
    tube = run_scenario(config).analyses["tube"]
    assert tube["error"]["type"] == "NotApplicable"
    assert "sphere-normal" in tube["error"]["message"]


def test_displaced_feet_match_per_point_rebuilds(v3, v3_xi):
    # the Dupin and caustic displacements of the curved sl-so:4 tube
    from normholo.linalg import sym_eig
    from normholo.orbit import mean_curvature, traceless_spectra_at
    from normholo.tubes import _hat_clusters
    patch = _curved_tube_patch(v3, v3_xi)
    rng = np.random.default_rng(3)
    _, p, radial = patch.evaluate(0.02 * rng.standard_normal((9,
                                                              patch.n_axes)))
    spectra, means = traceless_spectra_at(v3.rep, p, radial, v3.tols)
    hats = patch._hat_values(p, radial)
    for i, (pt, rv) in enumerate(zip(p, radial)):
        local = build_orbit(v3.rep, pt, tols=v3.tols)
        lam = sym_eig(traceless_shape_operator(local, rv),
                      tols=v3.tols).values
        mu = np.sum(rv * mean_curvature(local).ambient) / local.dim
        assert np.max(np.abs(spectra[i] - lam)) <= 1e-13
        assert abs(means[i] - mu) <= 1e-13
        ascending = _hat_clusters([lam + mu], "foot")[0]
        assert np.max(np.abs(hats[i] - ascending[[-1, -2]])) <= 1e-12


def test_dupin_and_caustic_build_no_orbit(v3, v3_xi, v3_patch,
                                          build_orbit_calls):
    _, patch = v3_patch
    dupin_check(v3, v3_xi, patch=patch)
    caustic_rank_check(v3, v3_xi, patch=patch)
    assert build_orbit_calls == []


def test_displaced_hat_values_reject_a_point_off_the_carrier(v3_patch):
    _, patch = v3_patch
    _, p, radial = patch.evaluate(np.zeros((3, patch.n_axes)))
    p[1] += 1e-3 * np.eye(4)
    with pytest.raises(InvalidInput, match="carrier"):
        patch._hat_values(p, radial)


def test_curved_tube_builds_its_foot_once(build_orbit_calls, monkeypatch):
    # the transport-loops benchmark's curved tube at seed 1: one foot
    # orbit, one curvature factor and no closure for its algebra, one
    # radial clustering and one foot spectrum, read by both routes
    import normholo.holonomy as holonomy
    import normholo.tubes as tubes
    calls = []

    def record(module, name):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    record(holonomy, "bracket_closure")
    record(holonomy, "adapted_curvature")
    real_commutators = CartanCurvature.commutators

    def commutators(mats):
        calls.append(("commutators", mats))
        return real_commutators(mats)
    monkeypatch.setattr(CartanCurvature, "commutators",
                        staticmethod(commutators))
    record(tubes, "sym_eig")
    record(tubes, "traceless_spectrum")
    config = ScenarioConfig.from_dict({
        "rep": "sl-so:4", "point": "veronese", "analyses": ["tube"],
        "curve": [[1, 0.31948674738744653], [4, 0.18051325261255347]],
        "seed": 1})
    tube = run_scenario(config).analyses["tube"]
    assert tube["ok"]
    assert len(build_orbit_calls) == 2          # the orbit and the foot
    names = [name for name, _ in calls]
    assert names.count("bracket_closure") == 0
    assert names.count("sym_eig") == 1
    # the foot's curvature factor is formed once, and only the foot's
    assert names.count("commutators") == 1
    factored = {id(arg) for name, arg in calls if name == "adapted_curvature"}
    assert len(factored) == 1
    # the direction's scaling on the orbit, then the foot spectrum once
    spectra_of = [arg for name, arg in calls if name == "traceless_spectrum"]
    assert len(spectra_of) == 2 and spectra_of[0] is not spectra_of[1]
    for key in ("footEigenvalues", "meanTerm"):
        assert tube["formula"][key] == tube["direct"][key]
