"""Carrier frames, conjugation action, isotropy, ambient curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normholo.errors import InvalidInput
from normholo.holonomy import adapted_curvature
from normholo.linalg import bracket
from normholo.orbit import build_orbit, shape_operators
from normholo.srep import (CartanCurvature, SymmetricPairRep, frame_action,
                           random_regular_point)


def cartan_pairing(a, b, c, d) -> float:
    """<R_{A,B} C, D> with R_{A,B} C = -[[A, B], C], one quadruple at a
    time: the oracle for CartanCurvature.entries."""
    return float(np.sum(-bracket(bracket(a, b), c) * d))


def test_single_block_dimensions():
    rep = SymmetricPairRep.for_size(4)
    assert rep.sizes == (4,)
    assert rep.total_size == 4
    assert rep.carrier_dim == 9          # sym 4x4 minus the trace
    assert rep.group_dim == 6


def test_product_dimensions():
    rep = SymmetricPairRep.product((3, 3))
    assert rep.total_size == 6
    assert rep.carrier_dim == 10
    assert rep.group_dim == 6
    assert rep.block_slices == (slice(0, 3), slice(3, 6))


def test_product_rejects_small_blocks():
    with pytest.raises(InvalidInput):
        SymmetricPairRep.product(())
    with pytest.raises(InvalidInput):
        SymmetricPairRep.product((3, 1))


@pytest.mark.parametrize("sizes", [(3,), (5,), (2, 4)])
def test_carrier_frame_orthonormal_traceless(sizes):
    rep = SymmetricPairRep.product(sizes)
    f = rep.carrier_frame
    gram = np.einsum("aij,bij->ab", f, f)
    assert np.allclose(gram, np.eye(rep.carrier_dim), atol=1e-12)
    assert np.allclose(f, np.transpose(f, (0, 2, 1)), atol=1e-12)
    for sl in rep.block_slices:
        assert np.allclose(np.trace(f[:, sl, sl], axis1=1, axis2=2), 0.0,
                           atol=1e-12)


def test_generators_skew_and_block_diagonal():
    rep = SymmetricPairRep.product((2, 3))
    g = rep.generators
    assert np.allclose(g, -np.transpose(g, (0, 2, 1)), atol=1e-12)
    mask = np.ones((5, 5), dtype=bool)
    for sl in rep.block_slices:
        mask[sl, sl] = False
    assert np.allclose(g[:, mask], 0.0)


@settings(max_examples=20)
@given(st.integers(0, 2 ** 31 - 1))
def test_coords_roundtrip(seed):
    rep = SymmetricPairRep.product((3, 2))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(rep.carrier_dim)
    assert np.allclose(rep.coords(rep.matrix(x)), x, atol=1e-12)


def test_validate_carrier_rejections():
    rep = SymmetricPairRep.product((3, 3))
    with pytest.raises(InvalidInput):
        rep.validate_carrier(np.zeros((5, 5)))
    skew = np.zeros((6, 6))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    with pytest.raises(InvalidInput):
        rep.validate_carrier(skew)
    with pytest.raises(InvalidInput):
        rep.validate_carrier(np.eye(6))       # per-block trace is nonzero
    cross = np.zeros((6, 6))
    cross[0, 4] = cross[4, 0] = 1.0           # couples the two blocks
    with pytest.raises(InvalidInput):
        rep.validate_carrier(cross)
    ok = np.diag([1.0, 0.0, -1.0, 2.0, -1.0, -1.0])
    assert np.allclose(rep.validate_carrier(ok), ok)


def _random_frame(rep, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((rep.carrier_dim, k)))
    return np.einsum("dk,dij->kij", q, rep.carrier_frame)


def test_frame_action_matches_bracket_loop():
    rep = SymmetricPairRep.product((3, 2))
    rng = np.random.default_rng(7)
    xs = np.einsum("pg,gij->pij", rng.standard_normal((4, rep.group_dim)),
                   rep.generators)
    out, inn = _random_frame(rep, 3, rng), _random_frame(rep, 5, rng)
    want = np.zeros((4, 3, 5))
    for g, x in enumerate(xs):
        for a, f in enumerate(out):
            for b, e in enumerate(inn):
                want[g, a, b] = np.sum(f * (x @ e - e @ x))
    got = frame_action(xs, out, inn)
    assert got.shape == (4, 3, 5)
    assert np.max(np.abs(got - want)) < 1e-13
    assert frame_action([], out, inn).shape == (0, 3, 5)
    # ad(X) is skew on the carrier, so on one frame every F[g] is skew
    same = frame_action(xs, out)
    assert np.allclose(same, -np.transpose(same, (0, 2, 1)), atol=1e-13)


def test_tangent_normal_split():
    rep = SymmetricPairRep.for_size(4)
    orbit = build_orbit(rep, random_regular_point(rep, seed=11))
    tan, nor = orbit.tangent_frame, orbit.normal_frame
    assert len(tan) + len(nor) == rep.carrier_dim
    cross = np.einsum("aij,bij->ab", tan, nor)
    assert float(np.max(np.abs(cross))) < 1e-10
    # a regular diagonal commutes exactly with every diagonal
    diag = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.array_equal(orbit.normal_stack(diag)[0], diag)


def test_isotropy_dimensions():
    rep = SymmetricPairRep.for_size(4)
    regular = random_regular_point(rep, seed=2)
    ker, mats = rep.isotropy_algebra(regular)
    assert ker.dim == 0 and mats == []

    # rank-one projector shape: stabilizer is the rotation group of the
    # repeated eigenvalue block
    v = np.diag([3.0, -1.0, -1.0, -1.0]) / 4.0
    ker, mats = rep.isotropy_algebra(v)
    assert ker.dim == 3
    for w in mats:
        assert np.allclose(w @ v - v @ w, 0.0, atol=1e-10)

    # a point under the rank threshold is normalized first, as
    # build_orbit does, so it keeps the stabilizer of its direction
    tiny = 1e-12 * np.diag([3.0, -1.0, -1.0, -1.0])
    assert rep.isotropy_algebra(tiny)[0].dim == 3
    with pytest.raises(InvalidInput, match="nonzero"):
        rep.isotropy_algebra(np.zeros((4, 4)))


def test_isotropy_frame_action_is_skew():
    rep = SymmetricPairRep.for_size(3)
    v = np.diag([2.0, -1.0, -1.0]) / 3.0
    _, mats = rep.isotropy_algebra(v)
    frame = rep.carrier_frame[:3]
    for s in frame_action(mats, frame):
        assert np.allclose(s, -s.T, atol=1e-12)


def test_frame_rotation_preserves_structure():
    rep = SymmetricPairRep.for_size(3)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((rep.carrier_dim,) * 2))
    rot = rep.with_frame_rotation(q)
    v = random_regular_point(rep, seed=0)
    assert build_orbit(rot, v).dim == build_orbit(rep, v).dim
    x = rng.standard_normal(rep.carrier_dim)
    assert np.allclose(rot.matrix(rot.coords(rep.matrix(x))), rep.matrix(x),
                       atol=1e-10)
    with pytest.raises(InvalidInput):
        rep.with_frame_rotation(2.0 * np.eye(rep.carrier_dim))


def test_random_regular_point_properties():
    rep = SymmetricPairRep.product((3, 4))
    v = random_regular_point(rep, seed=9)
    assert np.allclose(v, random_regular_point(rep, seed=9))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    rep.validate_carrier(v)
    for sl in rep.block_slices:
        d = np.sort(np.diag(v[sl, sl]))
        assert np.min(np.diff(d)) > 0.0


def test_cartan_curvature_symmetries():
    rng = np.random.default_rng(3)
    rep = SymmetricPairRep.for_size(3)
    a, b, c, d = (rep.matrix(rng.standard_normal(rep.carrier_dim))
                  for _ in range(4))
    p = cartan_pairing
    assert abs(p(a, b, c, d) + p(b, a, c, d)) < 1e-12
    assert abs(p(a, b, c, d) + p(a, b, d, c)) < 1e-12
    assert abs(p(a, b, c, d) - p(c, d, a, b)) < 1e-12
    # first Bianchi identity
    s = p(a, b, c, d) + p(b, c, a, d) + p(c, a, b, d)
    assert abs(s) < 1e-12


def test_cartan_entries_match_pairing():
    rep = SymmetricPairRep.for_size(3)
    mats = rep.carrier_frame[:3]
    t = CartanCurvature.entries(mats)
    for a in range(3):
        for b in range(3):
            got = t[a, b, a, b]
            want = cartan_pairing(mats[a], mats[b], mats[a], mats[b])
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cartan_entries_match_einsum_on_veronese(veronese, n):
    # Veronese r = n + 1: the Gram matrix of the commutators and its SVD
    # factor against the plain einsum
    mats = shape_operators(veronese(n))
    k, r = mats.shape[0], mats.shape[-1]
    coms = np.einsum("aij,bjk->abik", mats, mats)
    coms = coms - np.transpose(coms, (1, 0, 2, 3))
    assert np.array_equal(CartanCurvature.commutators(mats),
                          coms.reshape(k * k, r * r))
    want = -np.einsum("abij,cdji->abcd", coms, coms)
    scale = np.max(np.abs(want))
    got = CartanCurvature.entries(mats)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    f = adapted_curvature(veronese(n)).factor
    assert f.shape == (k * k, r * (r - 1) // 2)
    got = (f @ f.T).reshape(k, k, k, k)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _tangent_points():
    """Points of sl-so:4 that the per-point rules treat differently: a
    regular one, a huge and a tiny one (rescaled by their largest entry),
    a degenerate one and a rotated generic one."""
    rep = SymmetricPairRep.for_size(4)
    a = np.random.default_rng(5).standard_normal((4, 4))
    points = [random_regular_point(rep, 2),
              np.diag([1e300, -1e300, 0.0, 0.0]),
              np.diag([1e-9, 2e-9, 0.0, -3e-9]),
              np.diag([3.0, -1.0, -1.0, -1.0]),
              a + a.T - np.trace(a + a.T) / 4 * np.eye(4)]
    return rep, np.array(points)


def test_tangent_svds_of_a_stack_match_one_point_at_a_time():
    rep, points = _tangent_points()
    stacked = rep.tangent_svds(points)
    for i, point in enumerate(points):
        alone = rep.tangent_svds(point[None])
        for a, b in zip(stacked, alone):
            assert np.array_equal(a[i], b[0])
    empty = rep.tangent_svds(np.zeros((0, 4, 4)))
    assert empty[0].shape == (0, 4, 4) and empty[4].shape == (0,)


@pytest.mark.parametrize("bad", ["nan", "inf", "skew", "trace", "cross",
                                 "zero", "shape"])
def test_tangent_svds_stack_with_one_bad_point_says_what_alone_does(bad):
    rep = SymmetricPairRep.product((2, 2))
    good = np.diag([1.0, -1.0, 2.0, -2.0])
    point = good.copy()
    if bad in ("nan", "inf"):
        point[0, 1] = point[1, 0] = float(bad)
    elif bad == "skew":
        point[0, 1], point[1, 0] = 1.0, -1.0
    elif bad == "trace":
        point[0, 0] = 3.0
    elif bad == "cross":
        point[0, 2] = point[2, 0] = 1.0
    elif bad == "zero":
        point[:] = 0.0
    with pytest.raises(InvalidInput) as alone:
        rep.tangent_svds((point if bad != "shape" else good[:3, :3])[None])
    stack = np.array([good, point, 2.0 * good]) if bad != "shape" \
        else np.zeros((3, 3, 3))
    with pytest.raises(InvalidInput) as stacked:
        rep.tangent_svds(stack)
    assert str(stacked.value) == str(alone.value)
