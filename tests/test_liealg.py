"""Represented-algebra machinery: closure, splitting, transitivity."""

import numpy as np
import pytest

from normholo.errors import DimensionCapExceeded, InvalidInput
from normholo.liealg import (_sym_frame, _symmetric_commutant,
                             bracket_closure, invariant_decomposition,
                             is_transitive_on_sphere, skew_span)
from normholo.linalg import DEFAULT_TOLS, gram_kernel


def _so3_generators():
    gx = np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    gy = np.array([[0.0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
    gz = np.array([[0.0, -1.0, 0], [1.0, 0, 0], [0, 0, 0]])
    return gx, gy, gz


def test_skew_span_dedup_and_validation():
    gx, gy, gz = _so3_generators()
    span = skew_span([gx, gy, gz, gx + gy])
    assert span.dim == 3
    with pytest.raises(InvalidInput):
        skew_span([np.eye(3)])
    empty = skew_span([], acting_dim=4)
    assert empty.dim == 0 and empty.matrices().shape == (0, 4, 4)
    with pytest.raises(InvalidInput):
        skew_span([])


def test_bracket_closure_completes_so3():
    gx, gy, _ = _so3_generators()
    closed = bracket_closure([gx, gy])
    assert closed.dim == 3
    assert closed.closed
    with pytest.raises(DimensionCapExceeded):
        bracket_closure([gx, gy], cap=2)


def test_bracket_closure_already_closed():
    span = skew_span(list(_so3_generators()))
    assert bracket_closure(span).dim == 3


def test_decomposition_so2_in_r3():
    _, _, gz = _so3_generators()
    dec = invariant_decomposition(skew_span([gz]))
    assert dec.rank == 1                      # the z axis is fixed
    assert dec.factor_dims == (2,)
    assert dec.irreducible_by_probe == (True,)


def test_decomposition_full_so3():
    dec = invariant_decomposition(skew_span(list(_so3_generators())))
    assert dec.rank == 0
    assert dec.factor_dims == (3,)


def test_decomposition_two_blocks():
    g = np.zeros((2, 4, 4))
    g[0, 0, 1], g[0, 1, 0] = -1.0, 1.0
    g[1, 2, 3], g[1, 3, 2] = -1.0, 1.0
    dec = invariant_decomposition(skew_span(list(g)))
    assert dec.rank == 0
    assert dec.factor_dims == (2, 2)


def test_decomposition_trivial_algebra():
    dec = invariant_decomposition(skew_span([], acting_dim=3))
    assert dec.rank == 3
    assert dec.factor_dims == ()


def test_decomposition_frame_invariant():
    # factor structure must not depend on the coordinate frame
    gx, gy, gz = _so3_generators()
    base = [np.zeros((5, 5)) for _ in range(3)]
    for b, g in zip(base, (gx, gy, gz)):
        b[:3, :3] = g
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = [q @ b @ q.T for b in base]
    d0 = invariant_decomposition(skew_span(base))
    d1 = invariant_decomposition(skew_span(rotated))
    assert d0.factor_dims == d1.factor_dims == (3,)
    assert d0.rank == d1.rank == 2


def test_transitivity_probe():
    full = skew_span(list(_so3_generators()))
    res = is_transitive_on_sphere(full)
    assert res.transitive
    assert res.sphere_dim == 2
    assert all(d == 2 for d in res.probe_orbit_dims)

    _, _, gz = _so3_generators()
    circle = is_transitive_on_sphere(skew_span([gz]))
    assert not circle.transitive


def test_restrict_compresses_action():
    _, _, gz = _so3_generators()
    span = skew_span([gz])
    dec = invariant_decomposition(span)
    restricted = span.restrict(dec.factors[0])
    assert restricted.acting_dim == 2
    assert restricted.dim == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_frontier_closure_of_random_pair_fills_so_n(n):
    rng = np.random.default_rng(n)
    x, y = (a - a.T for a in rng.standard_normal((2, n, n)))
    assert bracket_closure([x, y]).dim == n * (n - 1) // 2


def _all_basis_commutant(mats, tols=DEFAULT_TOLS):
    # reference: kernel of S -> [x, S] over every basis element, with the
    # R factor accumulated one map at a time
    n = mats[0].shape[0]
    frame = _sym_frame(n)
    r = np.zeros((0, len(frame)))
    for x in mats:
        block = (x @ frame - frame @ x).reshape(len(frame), -1).T
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    ker = gram_kernel(r, tols)
    out = np.einsum("fj,fab->jab", ker.basis, frame)
    return list(0.5 * (out + np.transpose(out, (0, 2, 1))))


def _block_algebra(blocks):
    # direct sum of so(r_i), each acting on its own block of R^(sum r_i)
    total = sum(blocks)
    mats = []
    offset = 0
    for r in blocks:
        for i in range(r):
            for j in range(i + 1, r):
                x = np.zeros((total, total))
                x[offset + i, offset + j] = 1.0
                x[offset + j, offset + i] = -1.0
                mats.append(x)
        offset += r
    return mats


def _projector(mats):
    b = np.stack(mats).reshape(len(mats), -1)
    return b.T @ b


@pytest.mark.parametrize("blocks", [(3, 3), (3, 2, 2)])
@pytest.mark.parametrize("conjugate", [False, True])
def test_generating_pair_commutant_matches_all_basis(blocks, conjugate):
    mats = skew_span(_block_algebra(blocks)).basis
    if conjugate:
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((sum(blocks),) * 2))
        mats = skew_span([q @ x @ q.T for x in mats]).basis
    got = _symmetric_commutant(list(mats), np.random.default_rng(0),
                               DEFAULT_TOLS)
    want = _all_basis_commutant(list(mats))
    assert len(got) == len(want) == len(blocks)
    gap = np.linalg.norm(_projector(got) - _projector(want), 2)
    assert gap <= 1e-10


class _ScriptedRng:
    """Returns the scripted draws first, then seeded normal draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.rng = np.random.default_rng(5)
        self.calls = 0

    def standard_normal(self, size):
        self.calls += 1
        if self.draws:
            return self.draws.pop(0)
        return self.rng.standard_normal(size)


def test_commutant_adds_elements_when_pair_does_not_generate():
    # two copies of one rotation generate only so(2); the full-basis
    # residual check must reject that and impose a third element
    mats = list(skew_span(list(_so3_generators())).basis)
    e1 = np.array([1.0, 0.0, 0.0])
    rng = _ScriptedRng([e1, e1])
    got = _symmetric_commutant(mats, rng, DEFAULT_TOLS)
    assert rng.calls == 3
    assert len(got) == 1
    assert np.linalg.norm(got[0] - np.eye(3) / np.sqrt(3.0)) < 1e-12 \
        or np.linalg.norm(got[0] + np.eye(3) / np.sqrt(3.0)) < 1e-12
