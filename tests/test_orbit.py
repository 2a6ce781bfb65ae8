"""Orbit frames, second fundamental form, shape operators, homothecy."""

import numpy as np
import pytest

from normholo.errors import InvalidInput
from normholo.linalg import (DEFAULT_TOLS, orthonormal_span,
                             subspace_distance, sym_eig)
from normholo.holonomy import analyze
from normholo.orbit import (ISOTROPY_PROBES, build_orbit, homothecy_test,
                            isotropy_defect, mean_curvature, orbit_dims,
                            second_fundamental_form, shape_operator,
                            shape_operators, sphere_normal_shape_operators,
                            traceless_spectra_at, traceless_spectrum)
from normholo.report import parse_point_spec, parse_rep_spec
from normholo.srep import SymmetricPairRep, frame_action, random_regular_point

from conftest import traceless_shape_operator


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


def test_orbit_dims_match_build_orbit():
    # one stacked tangent SVD gives build_orbit's dimension at every point,
    # degenerate, tiny and huge points included
    rep = SymmetricPairRep.for_size(4)
    rng = np.random.default_rng(7)
    points = [random_regular_point(rep, seed) for seed in range(3)]
    points += [np.diag(d) for d in ([1.0, 1.0, -1.0, -1.0],
                                    [3.0, -1.0, -1.0, -1.0],
                                    [1.0, 1.0 + 1e-6, -0.5, -1.5 - 1e-6],
                                    [1e-9, 2e-9, 0.0, -3e-9],
                                    [1e300, -1e300, 0.0, 0.0])]
    a = rng.standard_normal((4, 4))
    points.append(a + a.T - np.trace(a + a.T) / 4 * np.eye(4))
    got = orbit_dims(rep, np.array(points))
    assert got.tolist() == [build_orbit(rep, p).dim for p in points]
    assert got.tolist()[:6] == [6, 6, 6, 4, 3, 6]
    assert orbit_dims(rep, np.zeros((0, 4, 4))).shape == (0,)
    with pytest.raises(InvalidInput):
        orbit_dims(rep, np.array([points[0], np.zeros((4, 4))]))


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


def traceless_shape(m):
    """(K, n, n): trace-free parts of the normal-frame shape operators."""
    ops = shape_operators(m)
    tr = np.trace(ops, axis1=1, axis2=2)
    return ops - tr[:, None, None] * np.eye(m.dim)[None] / m.dim


def test_traceless_shape_consistency(v3):
    tl = traceless_shape(v3)
    assert np.allclose(np.trace(tl, axis1=1, axis2=2), 0.0, atol=1e-12)
    xi = v3.nbar_frame[0] + 0.3 * v3.point
    want = traceless_shape_operator(v3, xi)
    got = np.einsum("k,kij->ij", v3.normal_coords(xi), tl)
    assert np.allclose(got, want, atol=1e-10)
    # the one spectrum routine: eigenvalues of got, and tr(A_xi)/n
    lam, mu = traceless_spectrum(v3, xi)
    assert np.allclose(lam, np.linalg.eigvalsh(got), atol=1e-12)
    assert abs(mu - np.trace(shape_operator(v3, xi)) / v3.dim) <= 1e-14


def test_isotropy_defect_separates_orbit_types(v3, product_orbit):
    assert isotropy_defect(v3).defect < 1e-10
    assert isotropy_defect(product_orbit).defect > 0.05


def _isotropy_by_loop(m, seed):
    # reference: one seeded unit probe and one contraction at a time
    alpha = second_fundamental_form(m)
    rng = np.random.default_rng(seed)
    norms = []
    for _ in range(ISOTROPY_PROBES):
        x = rng.standard_normal(m.dim)
        x /= np.linalg.norm(x)
        norms.append(float(np.linalg.norm(np.einsum("ijk,i,j->k",
                                                    alpha, x, x))))
    return max(norms) - min(norms), min(norms), max(norms)


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:4", "veronese"),
    ("sl-so:6", "veronese"),
    ("sl-so:4", "random-regular:1"),
    ("sl-so:3", "diag:1,0,-1"),
    ("product:sl-so:3,sl-so:3", "veronese;veronese"),
    ("product:sl-so:4,sl-so:4", "veronese;veronese"),
])
def test_isotropy_defect_matches_one_probe_at_a_time(rep_spec, point_spec):
    _, m = _spec_orbit(rep_spec, point_spec)
    for seed in (0, 1, 5):
        got = isotropy_defect(m, seed=seed)
        want = _isotropy_by_loop(m, seed)
        assert got.probes == ISOTROPY_PROBES
        for g, w in zip((got.defect, got.min_norm, got.max_norm), want):
            assert abs(g - w) <= 1e-14


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:3", "veronese"),
    ("sl-so:5", "veronese"),
    ("sl-so:4", "random-regular:2"),
    ("sl-so:5", "diag:2,2,2,-3,-3"),
    ("product:sl-so:3,sl-so:3", "veronese;veronese"),
])
def test_sphere_normal_shape_operators_match_one_at_a_time(rep_spec,
                                                           point_spec):
    # bit-equal to one shape_operator call per sphere-normal frame vector,
    # so the homothecy ratio and residual keep their bits
    _, m = _spec_orbit(rep_spec, point_spec)
    want = np.stack([shape_operator(m, xi) for xi in m.nbar_frame])
    assert np.array_equal(sphere_normal_shape_operators(m), want)


def test_sphere_normal_shape_operators_of_the_circle_are_empty():
    # the circle's only normal direction is the position
    m = build_orbit(SymmetricPairRep.for_size(2), np.diag([1.0, -1.0]))
    assert sphere_normal_shape_operators(m).shape == (0, 1, 1)
    assert m.normal_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_coordinate_helpers_roundtrip(v3):
    rng = np.random.default_rng(1)
    nu = rng.standard_normal(v3.codim)
    xi = v3.normal_vector(nu)
    assert np.allclose(v3.normal_coords(xi), nu, atol=1e-12)
    nb = rng.standard_normal(len(v3.nbar_frame))
    eta = np.einsum("k,kij->ij", nb, v3.nbar_frame)
    assert np.allclose(np.einsum("ij,kij->k", eta, v3.nbar_frame), nb,
                       atol=1e-12)


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
    # the stabilizer is the kernel of the same SVD: it fixes the point
    # and is the isotropy algebra at that point
    stab = m.stabilizer
    assert len(stab) == rep.group_dim - m.dim
    for x in stab:
        assert np.linalg.norm(x @ m.point - m.point @ x) <= 1e-12
    _, iso = rep.isotropy_algebra(m.point)
    r2 = rep.total_size ** 2
    assert subspace_distance(
        orthonormal_span(list(stab), ambient_dim=r2),
        orthonormal_span(list(iso), ambient_dim=r2)) <= 1e-12


def _spec_orbit(rep_spec, point_spec):
    rep = parse_rep_spec(rep_spec)
    return rep, build_orbit(rep, parse_point_spec(rep, point_spec))


@pytest.mark.parametrize("rep_spec, point_spec", [
    ("sl-so:3", "veronese"),
    ("sl-so:5", "veronese"),
    ("sl-so:7", "veronese"),
    ("sl-so:3", "diag:1,0,-1"),
    ("sl-so:4", "random-regular:2"),
    ("sl-so:4", "diag:1,1,-1,-1"),
    ("sl-so:5", "diag:1,1,-1,-1,0"),
    ("product:sl-so:3,sl-so:4", "veronese;random-regular:1"),
])
def test_nomizu_map_vanishes_on_s_orbits(rep_spec, point_spec):
    # [X, xi] has no normal part for X in the m-generators' span and xi
    # normal: the transport generator B_X is zero on these orbits
    _, m = _spec_orbit(rep_spec, point_spec)
    assert np.abs(frame_action(m.m_generators, m.normal_frame)).max() \
        <= 1e-12


def test_isotropy_generators_act_on_the_normal_space():
    # negative control: the full so(R) generators include the
    # stabilizer, whose slice action on the normal space is not zero
    rep, m = _spec_orbit("sl-so:3", "veronese")
    assert np.abs(frame_action(rep.generators, m.normal_frame)).max() > 0.5


def _spectra_one_at_a_time(rep, points, xis, tols=DEFAULT_TOLS):
    """The per-point reference: build_orbit, traceless_shape_operator and
    sym_eig at each point, and <xi, H>/n from mean_curvature."""
    spectra, means = [], []
    for p, xi in zip(points, xis):
        local = build_orbit(rep, p, tols=tols)
        spectra.append(sym_eig(traceless_shape_operator(local, xi),
                               tols=tols).values)
        means.append(np.sum(xi * mean_curvature(local).ambient) / local.dim)
    return spectra, np.array(means)


def _assert_spectra_match(rep, points, xis):
    spectra, means = traceless_spectra_at(rep, points, xis)
    want, want_means = _spectra_one_at_a_time(rep, points, xis)
    assert [len(s) for s in spectra] == [len(s) for s in want]
    for got, ref in zip(spectra, want):
        assert np.max(np.abs(got - ref)) <= 1e-13
    assert np.max(np.abs(means - want_means)) <= 1e-13


def _mixed_rank_stack():
    # sl-so:3 Veronese points (orbit dim 2) between principal A2 points
    # (orbit dim 3), each with a normal vector at its own orbit
    rep = SymmetricPairRep.for_size(3)
    rng = np.random.default_rng(5)
    points, xis = [], []
    for spec in ["veronese", "diag:1,0,-1", "diag:2,-0.5,-1.5", "veronese",
                 "random-regular:2"]:
        p = parse_point_spec(rep, spec)
        g = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        m = build_orbit(rep, g @ p @ g.T)
        points.append(3.0 * m.point)
        xis.append(np.einsum("k,kij->ij", rng.standard_normal(m.codim),
                             m.normal_frame))
    return rep, np.array(points), np.array(xis)


def test_stacked_spectra_keep_each_points_orbit_dimension():
    rep, points, xis = _mixed_rank_stack()
    spectra, _ = traceless_spectra_at(rep, points, xis)
    assert [len(s) for s in spectra] == [2, 3, 3, 2, 3]
    _assert_spectra_match(rep, points, xis)


@pytest.mark.parametrize("bad", ["nan point", "off carrier", "tangent xi",
                                 "nan xi", "zero point"])
def test_stacked_spectra_reject_one_bad_slice(bad):
    rep, points, xis = _mixed_rank_stack()
    if bad == "nan point":
        points[2, 0, 0] = np.nan
    elif bad == "off carrier":
        points[2] += 0.1 * np.eye(3)
    elif bad == "tangent xi":
        xis[3] += 1e-3 * build_orbit(rep, points[3]).tangent_frame[0]
    elif bad == "nan xi":
        xis[1, 0, 1] = xis[1, 1, 0] = np.nan
    else:
        points[4] = 0.0
    with pytest.raises(InvalidInput):
        traceless_spectra_at(rep, points, xis)


def test_normal_coords_of_a_stack_match_one_vector_at_a_time(v3):
    from normholo.orbit import _normal_coords
    rng = np.random.default_rng(4)
    xis = np.einsum("mk,kij->mij", rng.standard_normal((5, v3.codim)),
                    v3.normal_frame)
    xis[2] *= 1e-12
    stacked = _normal_coords(v3.normal_frame, xis, v3.tols.rank)
    for xi, row in zip(xis, stacked):
        alone = _normal_coords(v3.normal_frame, xi[None], v3.tols.rank)
        assert np.array_equal(row, alone[0])
    frames = np.stack([v3.normal_frame] * 5)
    assert np.array_equal(_normal_coords(frames, xis, v3.tols.rank), stacked)


@pytest.mark.parametrize("bad", ["nan", "inf", "tangent"])
def test_normal_coords_stack_with_one_bad_vector_says_what_alone_does(v3,
                                                                      bad):
    from normholo.orbit import _normal_coords
    xis = np.array([v3.normal_frame[0], v3.normal_frame[1],
                    v3.normal_frame[2]])
    if bad == "tangent":
        xis[1] = xis[1] + v3.tangent_frame[0]
    else:
        xis[1, 0, 0] = float(bad)
    with pytest.raises(InvalidInput) as alone:
        _normal_coords(v3.normal_frame, xis[1:2], v3.tols.rank)
    with pytest.raises(InvalidInput) as stacked:
        _normal_coords(v3.normal_frame, xis, v3.tols.rank)
    assert str(stacked.value) == str(alone.value)


def test_traceless_spectra_at_an_empty_stack(v3):
    spectra, means = traceless_spectra_at(v3.rep, np.zeros((0, 4, 4)),
                                          np.zeros((0, 4, 4)))
    assert spectra == [] and means.shape == (0,)
    with pytest.raises(InvalidInput, match="shape"):
        traceless_spectra_at(v3.rep, np.zeros((0, 4, 4)), np.zeros((1, 4, 4)))
