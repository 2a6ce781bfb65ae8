"""Veronese maps, orbit identification, dimension scan, fact suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normholo.errors import InvalidInput
from normholo.kernels import matrix_exp
from normholo.orbit import build_orbit, second_fundamental_form
from normholo.report import parse_point_spec, parse_rep_spec
from normholo.srep import frame_action
from normholo.transport import OrbitCurve, exact_transport
from normholo.veronese import (congruence_residual, equivariance_residual,
                               immersion_scaling_residuals,
                               minimal_dimension_scan,
                               parallel_alpha_residual, rho_tilde,
                               verify_veronese_facts, veronese_map,
                               veronese_orbit, veronese_type_point)


@settings(max_examples=20)
@given(st.integers(0, 2 ** 31 - 1))
def test_map_is_rank_one_projector(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    q = veronese_map(v)
    assert abs(np.trace(q) - 1.0) < 1e-12
    assert np.allclose(q @ q, q, atol=1e-12)
    assert np.allclose(q @ v, v, atol=1e-12)


def test_map_validation():
    with pytest.raises(InvalidInput):
        veronese_map(np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        veronese_map(np.eye(3))


def test_centering_is_traceless():
    v = np.zeros(5)
    v[2] = 1.0
    z = rho_tilde(v)
    assert abs(np.trace(z)) < 1e-14
    assert np.allclose(z, veronese_map(v) - np.eye(5) / 5.0)


def test_type_point_validation():
    with pytest.raises(InvalidInput):
        veronese_type_point(2)
    with pytest.raises(InvalidInput):
        veronese_type_point(4, scale=0.0)
    s = veronese_type_point(4, scale=-2.0)
    assert np.allclose(s, -2.0 * veronese_type_point(4), rtol=0, atol=0)
    assert np.linalg.eigvalsh(s)[0] < 0  # negative scale flips the split


def test_orbit_construction():
    with pytest.raises(InvalidInput):
        veronese_orbit(1)
    vo = veronese_orbit(3)
    assert vo.r == 4
    assert vo.orbit.dim == 3
    assert np.allclose(vo.base_point, veronese_type_point(4))
    # base point of the orbit is the normalized image of e1
    e1 = np.zeros(4)
    e1[0] = 1.0
    z = rho_tilde(e1)
    assert np.allclose(vo.orbit.point, z / np.linalg.norm(z), atol=1e-12)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_dimension_scan(r):
    scan = minimal_dimension_scan(r)
    assert scan.agrees()
    assert scan.formula_dims == tuple(k * (r - k) for k in range(1, r))
    assert scan.minimum == r - 1
    assert scan.argmin_splits == (1, r - 1)


def test_dimension_scan_validation():
    with pytest.raises(InvalidInput):
        minimal_dimension_scan(2)


def test_equivariance():
    assert equivariance_residual(3) <= 1e-10


def test_immersion_scaling():
    iso, hom = immersion_scaling_residuals(3)
    assert iso <= 1e-10
    assert hom <= 1e-10


def test_congruence():
    assert congruence_residual(3) <= 1e-7


def test_alpha_parallel_on_veronese(v3):
    assert parallel_alpha_residual(v3) <= 1e-4


def test_alpha_not_parallel_on_regular_orbit(a2_orbit):
    assert parallel_alpha_residual(a2_orbit) > 0.1


def _spec_orbit(rep_spec, point_spec):
    rep = parse_rep_spec(rep_spec)
    return build_orbit(rep, parse_point_spec(rep, point_spec))


def _fd_nabla_alpha(m, delta=1e-3):
    """Central differences of alpha in parallel frames along each e_m.

    At g = exp(+-delta X_m), alpha comes from the orbit rebuilt at
    g v g^T in its own frames, re-expressed in the transported frames:
    the normal frame carried by exact transport, the tangent frame as
    exp(-+delta B^T) coefficients conjugated by g.
    """
    out = []
    for x, bt in zip(m.m_generators, frame_action(m.m_generators,
                                                  m.tangent_frame)):
        tensors = []
        for sgn in (1.0, -1.0):
            curve = OrbitCurve(orbit=m, segments=((sgn * x, delta),))
            g = curve.group_path_end()
            normal = np.einsum("ma,mpq->apq", exact_transport(curve),
                               g @ m.normal_frame @ g.T)
            tangent = np.einsum("ki,kpq->ipq",
                                matrix_exp(-sgn * delta * bt),
                                g @ m.tangent_frame @ g.T)
            local = build_orbit(m.rep, g @ m.point @ g.T)
            p = np.einsum("kpq,ipq->ki", local.tangent_frame, tangent)
            q = np.einsum("cpq,apq->ca", local.normal_frame, normal)
            tensors.append(np.einsum("ki,lj,cb,klc->ijb", p, p, q,
                                     second_fundamental_form(local)))
        out.append((tensors[0] - tensors[1]) / (2.0 * delta))
    return float(np.linalg.norm(np.array(out)))


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:3", "diag:1,0,-1"),
    ("sl-so:4", "random-regular:0"),
    ("sl-so:5", "diag:1,1,0,-1,-1"),
])
def test_closed_form_nabla_alpha_matches_finite_differences(rep_spec,
                                                            point_spec):
    m = _spec_orbit(rep_spec, point_spec)
    closed = parallel_alpha_residual(m)
    assert closed > 0.1
    assert abs(_fd_nabla_alpha(m) - closed) <= 1e-4 * closed


@pytest.mark.parametrize("rep_spec, point_spec", [
    *((f"sl-so:{n + 1}", "veronese") for n in range(2, 7)),
    ("sl-so:4", "diag:1,1,-1,-1"),
    ("sl-so:5", "diag:2,2,-1,-1,-1"),
])
def test_alpha_parallel_on_two_eigenvalue_orbits(rep_spec, point_spec):
    assert parallel_alpha_residual(_spec_orbit(rep_spec, point_spec)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fact_suite_passes(n):
    rep = verify_veronese_facts(n)
    assert rep.all_pass(), rep.failures()
    assert rep.transitive == (n == 2)
    assert rep.dim == n
    assert rep.codim == n * (n + 1) // 2
    assert abs(rep.beta - rep.beta_expected) < 1e-10


def test_fact_suite_range():
    with pytest.raises(InvalidInput):
        verify_veronese_facts(7)
    with pytest.raises(InvalidInput):
        verify_veronese_facts(1)
