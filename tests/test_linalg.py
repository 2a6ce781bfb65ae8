"""Dense-core properties: spectra, spans, kernels, logs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from normholo import linalg
from normholo.errors import InvalidInput
from normholo.linalg import (DEFAULT_TOLS, Subspace, Tolerances, bracket,
                             check_symmetric, cluster_indices, extend_span,
                             gram_kernel, matrix_exp, mgs_qr, orthogonal_log,
                             orthonormal_span, polar_orthogonalize,
                             principal_angle_max, rank_reveal,
                             subspace_distance, sym_eig)


@given(hnp.arrays(np.float64, (5, 5), elements=st.floats(-4, 4)))
def test_sym_eig_reconstructs(a):
    a = 0.5 * (a + a.T)
    dec = sym_eig(a)
    scale = 1.0 + float(np.abs(dec.values).max(initial=0.0))
    assert np.all(np.diff(dec.values) >= 0.0)
    assert np.allclose(dec.vectors @ np.diag(dec.values) @ dec.vectors.T, a,
                       atol=1e-10 * scale)
    assert sum(len(c) for c in dec.clusters) == 5


def test_sym_eig_clusters_respect_gap():
    a = np.diag([0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.0])
    dec = sym_eig(a, tols=Tolerances(cluster_gap=1e-6))
    assert dec.cluster_sizes() == (2, 2, 1)
    assert np.allclose(dec.cluster_means(), [5e-10, 1.0 + 5e-10, 2.0])


def test_check_symmetric_rejects():
    with pytest.raises(InvalidInput):
        check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        check_symmetric(np.zeros((2, 3)))


def test_cluster_indices_cases():
    assert cluster_indices(np.array([]), 0.1) == ()
    assert cluster_indices(np.array([1.0, 1.05, 2.0]), 0.1) == ((0, 1), (2,))
    assert cluster_indices(np.array([1.0, 2.0, 3.0]), 10.0) == ((0, 1, 2),)


def test_bracket_validates():
    with pytest.raises(InvalidInput):
        bracket(np.zeros((2, 2)), np.zeros((3, 3)))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(bracket(x, x.T), [[1.0, 0.0], [0.0, -1.0]])


# -- spans -----------------------------------------------------------------


def test_orthonormal_span_dedups():
    v = np.array([1.0, 2.0, 0.0])
    w = np.array([0.0, 0.0, 3.0])
    sp = orthonormal_span([v, 2 * v, w, v + w])
    assert sp.dim == 2
    assert np.allclose(sp.basis.T @ sp.basis, np.eye(2), atol=1e-12)
    assert sp.contains(5 * v - w)
    assert not sp.contains(np.array([2.0, -1.0, 0.0]))


def test_orthonormal_span_project_idempotent():
    rng = np.random.default_rng(4)
    sp = orthonormal_span(rng.standard_normal((3, 7)))
    x = rng.standard_normal(7)
    p = sp.project(x)
    assert np.allclose(sp.project(p), p, atol=1e-12)
    assert abs(float((x - p) @ p)) < 1e-10


def test_extend_span_grows_only_with_new_directions():
    sp = orthonormal_span([np.array([1.0, 0.0, 0.0])])
    same = extend_span(sp, [np.array([2.0, 0.0, 0.0])])
    grown = extend_span(sp, [np.array([1.0, 1.0, 0.0])])
    assert same.dim == 1
    assert grown.dim == 2


def test_extend_span_keeps_the_same_space_for_noisy_members():
    # members of the span up to 1e-14 noise: the Frobenius norm of the
    # residual certifies rank 0, and the very same Subspace comes back
    rng = np.random.default_rng(5)
    sp = orthonormal_span(rng.standard_normal((4, 30)))
    rows = rng.standard_normal((12, 4)) @ sp.basis.T
    rows += 1e-14 * rng.standard_normal(rows.shape)
    assert extend_span(sp, rows) is sp
    assert extend_span(sp, list(rows)) is sp


def test_extend_span_frobenius_above_threshold_still_rank_zero(monkeypatch):
    # 16 orthogonal residual columns of norm half the threshold each:
    # ||R||_F is twice the threshold, so the SVD decides, and its
    # largest singular value (half the threshold) gives rank 0
    e = np.eye(20)
    sp = orthonormal_span([e[0]])
    threshold = DEFAULT_TOLS.rank * (1.0 + 1.0)  # rows of norm 1 + O(1e-17)
    rows = e[0] + 0.5 * threshold * e[1:17]
    residual = rows[:, 1:]
    assert np.linalg.norm(residual) > threshold
    assert np.linalg.norm(residual, 2) < threshold
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rank_reveal(*args, **kwargs)

    monkeypatch.setattr(linalg, "rank_reveal", counted)
    assert extend_span(sp, rows) is sp
    assert len(calls) == 1


# -- kernels and rank ------------------------------------------------------


def test_gram_kernel_known_kernel():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((6, 3))
    mat = b @ rng.standard_normal((3, 5))   # rank 3 map on R^5
    ker = gram_kernel(mat)
    assert ker.dim == 2
    assert np.linalg.norm(mat @ ker.basis) < 1e-8


@given(st.integers(1, 4), st.integers(0, 100))
def test_tolerant_rank_matches_numpy(k, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((6, k)) @ rng.standard_normal((k, 5))
    assert rank_reveal(mat)[3] == np.linalg.matrix_rank(mat, tol=1e-8)


def test_mgs_qr_reconstructs_accepted():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3))
    a = np.column_stack([a[:, 0], a[:, 1], a[:, 0] + a[:, 1], a[:, 2]])
    q, r, accepted = mgs_qr(a)
    assert accepted == [0, 1, 3]
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    assert np.allclose(q @ r, a[:, accepted], atol=1e-12)


# -- distances -------------------------------------------------------------


def test_subspace_distance_and_angle():
    e = np.eye(4)
    plane = orthonormal_span([e[0], e[1]])
    same = orthonormal_span([e[0] + e[1], e[0] - e[1]])
    perp = orthonormal_span([e[2], e[3]])
    assert subspace_distance(plane, same) < 1e-12
    assert abs(subspace_distance(plane, perp) - 1.0) < 1e-12
    theta = 0.3
    tilted = orthonormal_span(
        [e[0], np.cos(theta) * e[1] + np.sin(theta) * e[2]])
    assert abs(principal_angle_max(plane, tilted) - theta) < 1e-9


def test_subspace_distance_edge_cases():
    e = np.eye(4)
    line = orthonormal_span([e[0]])
    plane = orthonormal_span([e[0], e[1]])
    empty = orthonormal_span([], ambient_dim=4)
    assert subspace_distance(line, plane) == 1.0
    assert subspace_distance(empty, empty) == 0.0
    assert subspace_distance(empty, line) == 1.0
    assert principal_angle_max(line, plane) == 0.0
    assert principal_angle_max(empty, plane) == 0.0


def test_principal_angle_resolves_tiny_tilt():
    e = np.eye(4)
    plane = orthonormal_span([e[0], e[1]])
    for theta in (1e-10, 1e-13):
        tilted = orthonormal_span(
            [e[0], np.cos(theta) * e[1] + np.sin(theta) * e[2]])
        assert abs(principal_angle_max(plane, tilted) - theta) \
            < 1e-3 * theta
        assert abs(subspace_distance(plane, tilted) - np.sin(theta)) \
            < 1e-3 * theta


def test_subspace_distance_dimension_mismatch():
    a = orthonormal_span([np.array([1.0, 0.0])])
    b = orthonormal_span([np.array([1.0, 0.0, 0.0])])
    with pytest.raises(InvalidInput):
        subspace_distance(a, b)


# -- logs and polar --------------------------------------------------------


def test_orthogonal_log_roundtrip():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 5))
    x = 0.5 * (x - x.T)
    x *= 0.4 / np.linalg.norm(x)
    assert np.allclose(orthogonal_log(matrix_exp(x)), x, atol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_matrix_exp_rejects_non_finite(bad):
    x = np.zeros((3, 3))
    x[0, 2] = bad
    with pytest.raises(InvalidInput, match="finite"):
        matrix_exp(x)


def test_matrix_exp_takes_stacks_and_rejects_one_nan_slice():
    x = np.zeros((4, 3, 3))
    x[:, 0, 1] = [0.0, 0.3, -1.2, 4.0]
    x[:, 1, 0] = -x[:, 0, 1]
    got = matrix_exp(x)
    for e, xi in zip(got, x):
        assert np.array_equal(e, matrix_exp(xi))
    x[2, 1, 2] = np.nan
    with pytest.raises(InvalidInput, match="finite"):
        matrix_exp(x)


@pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 3, 4), (1, 2, 3, 3)])
def test_matrix_exp_rejects_non_square_shapes(shape):
    with pytest.raises(InvalidInput, match="square"):
        matrix_exp(np.zeros(shape))


def test_orthogonal_log_rejects_far_matrix():
    with pytest.raises(InvalidInput):
        orthogonal_log(-np.eye(3))


def test_polar_orthogonalize():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    noisy = q + 1e-2 * rng.standard_normal((5, 5))
    p = polar_orthogonalize(noisy)
    assert np.linalg.norm(p.T @ p - np.eye(5)) < 1e-12
    # exact orthogonal input is a fixed point
    assert np.allclose(polar_orthogonalize(q), q, atol=1e-12)


def test_subspace_coords_roundtrip():
    sp = orthonormal_span(list(np.eye(5)[:3]))
    x = np.array([1.0, -2.0, 0.5, 0.0, 0.0])
    assert np.allclose(sp.basis @ sp.coords(x), x)
    assert isinstance(sp, Subspace)
    assert DEFAULT_TOLS.rank == 1e-8
