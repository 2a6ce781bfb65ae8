"""Holonomy-tube spectra: formula route, patch route, focal structure."""

import numpy as np
import pytest

from normholo.errors import (FocalDegeneracy, InvalidInput, InvalidShift,
                             NotApplicable)
from normholo.orbit import build_orbit
from normholo.report import ScenarioConfig, run_scenario
from normholo.srep import SymmetricPairRep
from normholo.transport import OrbitCurve
from normholo.tubes import (TubeSpectrum, caustic_rank_check,
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
