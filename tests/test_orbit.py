"""Orbit frames, second fundamental form, shape operators, homothecy."""

import numpy as np
import pytest

from normholo.errors import InvalidInput
from normholo.holonomy import analyze
from normholo.orbit import (build_orbit, homothecy_test,
                            isotropy_defect, mean_curvature,
                            second_fundamental_form, shape_operator,
                            shape_operators, traceless_shape,
                            traceless_shape_operator)
from normholo.srep import SymmetricPairRep, random_regular_point


def test_build_orbit_rejects_zero_point():
    rep = SymmetricPairRep.for_size(3)
    with pytest.raises(InvalidInput):
        build_orbit(rep, np.zeros((3, 3)))


def test_build_orbit_rejects_non_finite_point():
    rep = SymmetricPairRep.for_size(3)
    with pytest.raises(InvalidInput):
        build_orbit(rep, np.diag([np.nan, 0.0, 0.0]))


def test_build_orbit_normalization():
    rep = SymmetricPairRep.for_size(3)
    p = np.diag([4.0, -2.0, -2.0])
    m = build_orbit(rep, p)
    assert abs(np.linalg.norm(m.point) - 1.0) < 1e-12
    assert np.allclose(m.point, p / np.linalg.norm(p))


def test_build_orbit_huge_point_is_the_a2_principal_orbit(a2_orbit):
    # the plain norm of this point overflows (the suite turns the
    # overflow RuntimeWarning into an error); normalized, it is diag(1,0,-1)
    rep = SymmetricPairRep.for_size(3)
    huge = build_orbit(rep, np.diag([1e300, 0.0, -1e300]))
    assert np.array_equal(huge.point, a2_orbit.point)
    got, want = analyze(huge), analyze(a2_orbit)
    assert (got.rank, got.factor_dims, got.conjecture_class) == \
        (want.rank, want.factor_dims, want.conjecture_class) == \
        (2, (), "s-orbit-compatible")


def test_build_orbit_tiny_point_is_the_a2_principal_orbit(a2_orbit):
    # the plain norm 1.4e-9 is under the rank threshold; normalized, the
    # point is diag(1, 0, -1)
    rep = SymmetricPairRep.for_size(3)
    tiny = build_orbit(rep, np.diag([1e-9, 0.0, -1e-9]))
    assert np.array_equal(tiny.point, a2_orbit.point)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_one_orbit_dimensions(veronese, n):
    m = veronese(n)
    assert m.dim == n
    assert m.codim == n * (n + 1) // 2
    assert len(m.nbar_frame) == m.codim - 1
    gram = np.einsum("aij,bij->ab", m.tangent_frame, m.tangent_frame)
    assert np.allclose(gram, np.eye(n), atol=1e-10)
    # sphere-normal directions are orthogonal to the position
    dots = np.einsum("kij,ij->k", m.nbar_frame, m.point)
    assert float(np.max(np.abs(dots))) < 1e-10


def test_regular_orbit_dimensions(a2_orbit):
    assert a2_orbit.dim == 3
    assert a2_orbit.codim == 2
    assert len(a2_orbit.nbar_frame) == 1


def test_generator_reproduces_tangent_frame(v3):
    for i in range(v3.dim):
        x = v3.m_generators[i]
        img = x @ v3.point - v3.point @ x
        assert np.allclose(img, v3.tangent_frame[i], atol=1e-10)


def test_position_shape_operator_is_minus_identity(v3):
    a = shape_operator(v3, v3.point)
    assert np.allclose(a, -np.eye(v3.dim), atol=1e-10)


def test_shape_operator_rejects_tangent_input(v3):
    with pytest.raises(InvalidInput):
        shape_operator(v3, v3.tangent_frame[0])


def test_shape_operators_symmetric(v3):
    ops = shape_operators(v3)
    assert ops.shape == (v3.codim, v3.dim, v3.dim)
    assert np.allclose(ops, np.transpose(ops, (0, 2, 1)), atol=1e-10)


def test_alpha_symmetry_and_eval(v3, a2_orbit):
    # alpha(X.v, Y.v) = P_normal(([X,[Y,v]] + [Y,[X,v]]) / 2), pair by
    # pair, and exactly symmetric in (i, j)
    rep = SymmetricPairRep.for_size(5)
    regular = build_orbit(rep, random_regular_point(rep, seed=3))
    for m in (v3, a2_orbit, regular):
        alpha = second_fundamental_form(m)
        assert np.array_equal(alpha, np.transpose(alpha, (1, 0, 2)))
        v = m.point
        want = np.zeros_like(alpha)
        for i, x in enumerate(m.m_generators):
            for j, y in enumerate(m.m_generators):
                xy = x @ (y @ v - v @ y) - (y @ v - v @ y) @ x
                yx = y @ (x @ v - v @ x) - (x @ v - v @ x) @ y
                want[i, j] = m.normal_coords(0.5 * (xy + yx))
        assert np.max(np.abs(alpha - want)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mean_curvature_is_radial(veronese, n):
    mc = mean_curvature(veronese(n))
    assert mc.minimal_in_sphere
    assert mc.sphere_residual <= 1e-10
    assert abs(mc.radial_component + n) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_homothecy_on_rank_one_orbits(veronese, n):
    h = homothecy_test(veronese(n))
    assert h.is_homothecy
    assert abs(h.ratio - np.sqrt(n / (n + 1.0))) < 1e-10


def test_homothecy_negatives():
    # well-separated spectra break the Gram proportionality
    m = build_orbit(SymmetricPairRep.for_size(4),
                    np.diag([3.0, 1.0, -1.0, -3.0]))
    h = homothecy_test(m)
    assert not h.is_homothecy
    assert h.gram_residual > 0.1

    m = build_orbit(SymmetricPairRep.for_size(5),
                    np.diag([3.0, 3.0, -2.0, -2.0, -2.0]))
    h = homothecy_test(m)
    assert not h.is_homothecy
    assert h.gram_residual > 0.3


def test_homothecy_two_eigenvalue_orbit():
    m = build_orbit(SymmetricPairRep.for_size(4),
                    np.diag([1.0, 1.0, -1.0, -1.0]))
    assert homothecy_test(m).is_homothecy


def test_homothecy_vacuous_on_line(a2_orbit):
    # one sphere-normal direction: the Gram matrix is a single entry
    h = homothecy_test(a2_orbit)
    assert h.is_homothecy
    assert h.gram_residual == 0.0


def test_traceless_shape_consistency(v3):
    tl = traceless_shape(v3)
    assert np.allclose(np.trace(tl, axis1=1, axis2=2), 0.0, atol=1e-12)
    xi = v3.nbar_frame[0]
    want = traceless_shape_operator(v3, xi)
    got = np.einsum("k,kij->ij", v3.normal_coords(xi), tl)
    assert np.allclose(got, want, atol=1e-10)


def test_isotropy_defect_separates_orbit_types(v3, product_orbit):
    assert isotropy_defect(v3).defect < 1e-10
    assert isotropy_defect(product_orbit).defect > 0.05


def test_coordinate_helpers_roundtrip(v3):
    rng = np.random.default_rng(1)
    nu = rng.standard_normal(v3.codim)
    xi = v3.normal_vector(nu)
    assert np.allclose(v3.normal_coords(xi), nu, atol=1e-12)
    nb = rng.standard_normal(len(v3.nbar_frame))
    eta = v3.nbar_vector(nb)
    assert np.allclose(v3.nbar_coords(eta), nb, atol=1e-12)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-7])
def test_near_singular_point_splits_carrier(eps):
    # tangent and normal frames come from one SVD, so they fill the
    # carrier even where two eigenvalues of the point nearly collide
    rep = SymmetricPairRep.for_size(4)
    m = build_orbit(rep, np.diag([1.0, 1.0 + eps, -0.5, -1.5 - eps]))
    assert m.dim + m.codim == rep.carrier_dim
    frames = np.concatenate([m.tangent_frame, m.normal_frame])
    gram = np.einsum("aij,bij->ab", frames, frames)
    assert np.allclose(gram, np.eye(rep.carrier_dim), atol=1e-10)
