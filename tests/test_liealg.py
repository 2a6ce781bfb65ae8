"""Represented-algebra machinery: closure, splitting, transitivity."""

import dataclasses

import numpy as np
import pytest

from normholo import liealg, linalg
from normholo.errors import (DegenerateSpectrum, DimensionCapExceeded,
                             InvalidInput)
from normholo.holonomy import holonomy_algebra
from normholo.liealg import (_schur_factors, _sym_frame,
                             _symmetric_commutant, bracket_closure,
                             invariant_decomposition,
                             is_transitive_on_sphere, skew_span)
from normholo.linalg import (DEFAULT_TOLS, Subspace, gram_kernel,
                             subspace_distance)
from normholo.srep import SymmetricPairRep, frame_action


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


def _counted_closure(monkeypatch, span_or_mats):
    # bracket_closure with its extend_span calls counted: calls, calls
    # that grew the span, and rank_reveal calls made inside them
    counts = {"calls": 0, "grew": 0, "rank_reveal": 0}
    inside = []
    extend, reveal = liealg.extend_span, linalg.rank_reveal

    def counted_extend(space, vectors):
        inside.append(True)
        try:
            out = extend(space, vectors)
        finally:
            inside.pop()
        counts["calls"] += 1
        counts["grew"] += out is not space
        return out

    def counted_reveal(*args, **kwargs):
        counts["rank_reveal"] += bool(inside)
        return reveal(*args, **kwargs)

    monkeypatch.setattr(liealg, "extend_span", counted_extend)
    monkeypatch.setattr(linalg, "rank_reveal", counted_reveal)
    return bracket_closure(span_or_mats), counts


def test_closed_veronese_algebra_needs_no_rank_reveal(veronese, monkeypatch):
    # sl-so:7: every chunk of brackets lies in the span, and the
    # Frobenius certificate says so without an SVD
    algebra = holonomy_algebra(veronese(6))
    closed, counts = _counted_closure(monkeypatch, algebra)
    assert closed.dim == algebra.dim
    assert counts["calls"] == algebra.dim - 1
    assert counts["grew"] == 0
    assert counts["rank_reveal"] == 0


def _block_closure(mats, tol=DEFAULT_TOLS.rank):
    # reference: every round ranks the span and all brackets of its
    # basis as one stacked block by one SVD
    k = mats[0].shape[0]
    basis = np.zeros((0, k * k))
    block = np.stack(mats).reshape(len(mats), -1)
    while True:
        _, s, vt = np.linalg.svd(np.vstack([basis, block]),
                                 full_matrices=False)
        grown = vt[s > tol * (1.0 + s[0])]
        if len(grown) == len(basis):
            return basis
        basis = grown
        m = basis.reshape(-1, k, k)
        block = (m[:, None] @ m[None] - m[None] @ m[:, None]).reshape(-1,
                                                                     k * k)


def test_streamed_closure_matches_single_block_reference(monkeypatch):
    # a random generating pair of so(6) grows over several rounds, each
    # chunk ranked at its own scale; the span is the reference's
    rng = np.random.default_rng(6)
    x, y = (a - a.T for a in rng.standard_normal((2, 6, 6)))
    closed, counts = _counted_closure(monkeypatch, [x, y])
    assert counts["grew"] >= 2
    ref = _block_closure([x, y])
    assert closed.dim == len(ref) == 15
    got = Subspace(ambient_dim=36, basis=closed.matrices().reshape(15, 36).T)
    assert subspace_distance(got, Subspace(ambient_dim=36, basis=ref.T)) \
        <= 1e-10


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


def test_commutant_adds_elements_when_pair_does_not_generate(monkeypatch):
    # x = y generates only so(2), whose commutant is two-dimensional; the
    # full-basis residual check must reject that, and the whole-basis
    # pass on the same frame must return the scalars
    calls = []
    on_frame = liealg._commutant_on_frame

    def counted(elements, frame, tols):
        calls.append(len(elements))
        return on_frame(elements, frame, tols)

    monkeypatch.setattr(liealg, "_commutant_on_frame", counted)
    mats = list(skew_span(list(_so3_generators())).basis)
    e1 = np.array([1.0, 0.0, 0.0])
    rng = _ScriptedRng([e1, e1])
    got = _symmetric_commutant(mats, rng, DEFAULT_TOLS)
    assert rng.calls == 2
    assert calls == [2, 3]
    assert len(got) == 1
    assert np.linalg.norm(got[0] - np.eye(3) / np.sqrt(3.0)) < 1e-12 \
        or np.linalg.norm(got[0] + np.eye(3) / np.sqrt(3.0)) < 1e-12


def _direct_sum(*reps):
    # block-diagonal sum: element p acts by reps[0][p] (+) reps[1][p] ...
    total = sum(r[0].shape[0] for r in reps)
    out = np.zeros((len(reps[0]), total, total))
    offset = 0
    for r in reps:
        n = r[0].shape[0]
        out[:, offset:offset + n, offset:offset + n] = r
        offset += n
    return out


def _conjugated(mats, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((mats.shape[1],) * 2))
    return q @ mats @ q.T


def _spin2():
    # so(3) on traceless symmetric 3x3 matrices by commutator
    rep = SymmetricPairRep.for_size(3)
    return frame_action(rep.generators, rep.carrier_frame)


_SO2 = np.array([[[0.0, -1.0], [1.0, 0.0]]])


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("block, dims", [
    (np.stack(_so3_generators()), (3, 3)),    # real type: R^3 (+) R^3
    (_SO2, (2, 2)),                            # complex type: C (+) C
])
def test_diagonal_action_splits_into_equal_factors(block, dims, conjugate):
    # an isotypic sum V (+) V: its commutant is more than the scalars,
    # and a random element of it splits the sum into two copies of V
    mats = _direct_sum(block, block)
    if conjugate:
        mats = _conjugated(mats, 7)
    dec = invariant_decomposition(skew_span(list(mats)))
    assert dec.rank == 0
    assert dec.factor_dims == dims


def _moving_algebra(span):
    # the algebra restricted to the row space of its stacked basis
    _, s, vt = np.linalg.svd(span.matrices().reshape(-1, span.acting_dim))
    moving = vt[s > 1e-8 * s[0]].T
    return moving.T @ span.matrices() @ moving


@pytest.mark.parametrize("case", ["complex-pair", "veronese-5", "one-cluster"])
def test_small_frame_commutant_matches_all_basis(case, veronese):
    # x^T x with one 4-dim eigenspace (C (+) C, x = c (J (+) J) up to
    # conjugation), the irreducible Veronese sl-so:5 holonomy algebra on
    # its moving space, and a cluster gap that merges every eigenvalue
    # into one cluster, i.e. the full symmetric frame
    tols = DEFAULT_TOLS
    if case == "complex-pair":
        mats, want = _conjugated(_direct_sum(_SO2, _SO2), 7), 4
    elif case == "veronese-5":
        mats, want = _moving_algebra(holonomy_algebra(veronese(4))), 1
    else:
        mats = _conjugated(np.stack(_block_algebra((3, 3))), 11)
        mats, want = skew_span(list(mats)).matrices(), 2
        tols = dataclasses.replace(DEFAULT_TOLS, cluster_gap=1e3)
    got = _symmetric_commutant(list(mats), np.random.default_rng(0), tols)
    ref = _all_basis_commutant(list(mats))
    assert len(got) == len(ref) == want
    gap = np.linalg.norm(_projector(got) - _projector(ref), 2)
    assert gap <= 1e-10


def _probe_closure_dim(mats, v, tol=1e-8):
    # reference: smallest invariant subspace containing v
    basis = v[:, None] / np.linalg.norm(v)
    while True:
        u, s, _ = np.linalg.svd(np.hstack([basis] + [m @ basis for m in mats]),
                                full_matrices=False)
        rank = int(np.count_nonzero(s > tol * s[0]))
        if rank == basis.shape[1]:
            return rank
        basis = u[:, :rank]


def test_schur_test_splits_merged_non_isomorphic_candidate():
    # spin-2 (+) spin-1 of so(3), offered as one 8-dim candidate: a probe
    # closure fills it, but its commutant is not the scalars
    mats = _conjugated(_direct_sum(_spin2(), np.stack(_so3_generators())), 3)
    span = skew_span(list(mats))
    rng = np.random.default_rng(0)
    assert _probe_closure_dim(span.basis, rng.standard_normal(8)) == 8
    comm = _symmetric_commutant(list(span.basis), rng, DEFAULT_TOLS)
    assert len(comm) == 2
    pieces = _schur_factors(np.eye(8), comm, rng, DEFAULT_TOLS)
    assert sorted(p.shape[1] for p in pieces) == [3, 5]
    for p in pieces:
        proj = p @ p.T
        assert max(np.linalg.norm(x @ proj - proj @ x) for x in mats) < 1e-10
    assert invariant_decomposition(span).factor_dims == (5, 3)


def test_schur_and_cluster_tests_disagree_raises():
    # so(2) (+) so(2) on R^2 (+) R^2: the commutant has rank 1 beyond the
    # scalars, but a cluster gap of 1e3 merges every eigenvalue
    mats = _direct_sum(_SO2, np.zeros((1, 2, 2)))
    mats = np.concatenate([mats, _direct_sum(np.zeros((1, 2, 2)), _SO2)])
    tols = dataclasses.replace(DEFAULT_TOLS, cluster_gap=1e3)
    with pytest.raises(DegenerateSpectrum):
        invariant_decomposition(skew_span(list(mats)), tols=tols)
