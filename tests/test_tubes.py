"""Holonomy-tube spectra: formula route, patch route, focal structure."""

import numpy as np
import pytest

from normholo.errors import (FocalDegeneracy, InvalidInput, InvalidShift,
                             NotApplicable)
from normholo.linalg import matrix_exp
from normholo.orbit import build_orbit
from normholo.report import ScenarioConfig, run_scenario
from normholo.srep import SymmetricPairRep
from normholo.transport import (OrbitCurve, exact_transport,
                                exact_transport_vector)
from normholo.tubes import (TubePatch, TubeSpectrum, caustic_rank_check,
                            choose_tube_direction, dupin_check,
                            equivalence_one_check,
                            normal_exponential_differential,
                            normal_exponential_fd_residual,
                            seeded_tube_direction, spectra_agree,
                            tube_spectrum_direct, tube_spectrum_via_formula)


@pytest.fixture(scope="module")
def v3_xi(v3):
    return choose_tube_direction(v3)


@pytest.fixture(scope="module")
def v3_patch(v3, v3_xi):
    spec, patch = tube_spectrum_direct(v3, v3_xi)
    return spec, patch


def test_canonical_direction_spectrum(v3, v3_xi):
    from normholo.orbit import traceless_shape_operator
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


def test_seeded_direction_deterministic(v3):
    a = seeded_tube_direction(v3, seed=5)
    assert np.allclose(a, seeded_tube_direction(v3, seed=5))
    from normholo.orbit import traceless_shape_operator
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
    assert res.shifted_spectrum_positive


def test_caustic_rejects_bad_shift(v3, v3_xi, v3_patch):
    _, patch = v3_patch
    with pytest.raises(InvalidShift):
        caustic_rank_check(v3, v3_xi, patch=patch, shift=1.04)


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


def test_chart_matches_curve_endpoint_and_transport(v3, v3_xi):
    from normholo.tubes import _chart
    c = np.array([[0.6, -0.3, 0.2], [0.0, 1.0, -0.5]])
    delta = 1e-3
    q, _, _ = _chart(v3, v3.normal_coords(v3_xi),
                     delta * np.concatenate([c, -c]))
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
    patch._axis_stencils()
    assert len(calls) <= 3


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
