"""Kernel-level checks: contracts of the one kernel path, scipy oracles."""

import inspect

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from normholo import kernels
from normholo.kernels import (BLOCK, jacobi_eigh, matrix_exp,
                              transport_segment)


def _random_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


# -- jacobi eigensolver ----------------------------------------------------


@given(hnp.arrays(np.float64, (6, 6), elements=st.floats(-5, 5)))
def test_jacobi_matches_lapack(a):
    a = 0.5 * (a + a.T)
    w, v = jacobi_eigh(a)
    w_ref = np.linalg.eigvalsh(a)
    assert np.allclose(w, w_ref, atol=1e-10 * (1.0 + np.abs(w_ref).max()))
    assert np.allclose(v.T @ v, np.eye(6), atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.T, a,
                       atol=1e-11 * (1.0 + np.abs(w_ref).max()))


def test_jacobi_ascending_and_deterministic():
    a = _random_sym(9, 3)
    w1, v1 = jacobi_eigh(a)
    w2, v2 = jacobi_eigh(a)
    assert np.all(np.diff(w1) >= 0.0)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_jacobi_sign_canonicalization():
    w, v = jacobi_eigh(_random_sym(7, 11))
    for j in range(7):
        k = int(np.argmax(np.abs(v[:, j])))
        assert v[k, j] > 0.0


def test_jacobi_empty_and_diagonal():
    w, v = jacobi_eigh(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    w, v = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def _check_against_scipy(a):
    w, v = jacobi_eigh(a)
    w_ref, v_ref = scipy.linalg.eigh(a)
    assert np.allclose(w, w_ref, atol=1e-12 * (1.0 + np.abs(w_ref).max()))
    assert np.allclose(v.T @ v, np.eye(len(w)), atol=1e-12)
    # eigenvectors agree up to a rotation inside each eigenspace: compare
    # the spectral projectors of each distinct eigenvalue
    for lam in np.unique(np.round(w_ref, 8)):
        mine = v[:, np.abs(w - lam) < 1e-6]
        ref = v_ref[:, np.abs(w_ref - lam) < 1e-6]
        assert mine.shape == ref.shape
        assert np.allclose(mine @ mine.T, ref @ ref.T, atol=1e-10)


def test_jacobi_backends_agree():
    _check_against_scipy(_random_sym(8, 5))


def test_jacobi_loops_match_vectorized():
    # a repeated eigenvalue: the eigenspace, not a basis, is determined
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    a = q @ np.diag([2.0, -1.0, 2.0, 0.5, 2.0]) @ q.T
    _check_against_scipy(0.5 * (a + a.T))
    w, _ = jacobi_eigh(a)
    assert np.allclose(w, [-1.0, 0.5, 2.0, 2.0, 2.0], atol=1e-12)


# -- matrix exponential ----------------------------------------------------


def test_expm_identity_at_zero():
    assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))


@given(hnp.arrays(np.float64, (5, 5), elements=st.floats(-2, 2)))
def test_expm_matches_scipy(x):
    got = matrix_exp(x)
    ref = scipy.linalg.expm(x)
    assert np.allclose(got, ref, atol=1e-11 * (1.0 + np.linalg.norm(ref)))


def test_expm_skew_gives_orthogonal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    x = 0.5 * (x - x.T)
    q = matrix_exp(x)
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-13)


def test_expm_additivity_on_commuting():
    x = np.diag([0.3, -1.2, 2.0])
    assert np.allclose(matrix_exp(x) @ matrix_exp(x), matrix_exp(2 * x),
                       atol=1e-13)


def _horner_exp(x):
    """The exponential with a fresh identity in every Horner term."""
    n = x.shape[0]
    nrm = np.sqrt(np.sum(x * x))
    s = 0
    y = x
    if nrm > 0.5:
        s = int(np.ceil(np.log2(nrm / 0.5)))
        y = x / (2.0 ** s)
    p = np.eye(n)
    for k in range(18, 0, -1):
        p = np.eye(n) + (y / k) @ p
    for _ in range(s):
        p = p @ p
    return p


def test_expm_bits_match_fresh_identity_horner():
    rng = np.random.default_rng(8)
    for n in range(2, 11):
        for scale in (0.05, 3.0):       # below and above the scaling norm
            x = rng.standard_normal((n, n))
            x *= scale / np.linalg.norm(x)
            if n % 2:
                x = x - x.T
            assert np.array_equal(matrix_exp(x), _horner_exp(x))


def _mixed_stack(n, seed):
    """Matrices whose scaling needs 0, 1, ..., 6 squarings, and a zero."""
    rng = np.random.default_rng(seed)
    out = []
    for nrm in (0.3, 0.8, 1.7, 3.1, 6.5, 12.0, 25.0, 0.0):
        x = rng.standard_normal((n, n))
        if n % 2 and n > 1:
            x = x - x.T
        out.append(x * (nrm / np.linalg.norm(x)))
    return np.array(out)


def test_expm_stack_slices_match_2d_bits():
    for n in range(1, 10):
        stack = _mixed_stack(n, n)
        got = matrix_exp(stack)
        assert got.shape == stack.shape
        for x, p in zip(stack, got):
            assert np.array_equal(p, matrix_exp(x))


def test_expm_stack_zero_slice_is_identity():
    got = matrix_exp(_mixed_stack(5, 1))
    assert np.array_equal(got[-1], np.eye(5))


def test_expm_empty_and_single_stacks():
    assert matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    x = _mixed_stack(4, 2)[4]
    assert np.array_equal(matrix_exp(x[None]), matrix_exp(x)[None])


# -- transport stepper -----------------------------------------------------


def _transport_reference(base_frames, xis, g0, e_half, nsteps, targets,
                         sample_stride=0):
    """The stepper written one vector and one frame element at a time.

    With sample_stride > 0 it also returns the start state and the state
    after every sample_stride-th step and after the last step."""
    kdim = base_frames.shape[0]
    r = base_frames.shape[1]

    def conj(g):
        return np.stack([g @ base_frames[k] @ g.T for k in range(kdim)])

    def project(frames, x):
        out = np.zeros((r, r))
        for k in range(kdim):
            out += np.sum(frames[k] * x) * frames[k]
        return out

    g = g0.copy()
    f_prev = conj(g)
    xi = xis.copy()
    drift = np.zeros(len(xis))
    min_ratio = np.ones(len(xis))
    samples, g_samples = [xi.copy()], [g.copy()]
    for step in range(nsteps):
        g_mid = g @ e_half
        f_mid = conj(g_mid)
        g = g_mid @ e_half
        f_end = conj(g)
        for m in range(len(xis)):
            m1 = project(f_mid, xi[m])
            d = m1 - xi[m]
            y = m1 + project(f_mid, d) - project(f_prev, d)
            xin = project(f_end, y)
            nrm = np.sqrt(np.sum(xin * xin))
            if targets[m] > 0.0:
                min_ratio[m] = min(min_ratio[m], nrm / targets[m])
                drift[m] += abs(nrm - targets[m])
                if nrm > 0.0:
                    xin = xin * (targets[m] / nrm)
            xi[m] = xin
        f_prev = f_end
        if (step + 1) % max(sample_stride, 1) == 0 or step == nsteps - 1:
            samples.append(xi.copy())
            g_samples.append(g.copy())
    if sample_stride > 0:
        return xi, g, drift, min_ratio, np.array(samples), np.array(g_samples)
    return xi, g, drift, min_ratio


def _transport_inputs(v3, nsteps=40, h=0.5 / 40, count=2):
    """A real segment of nsteps steps of length h on the Veronese
    threefold, transporting count sphere-normal frame vectors."""
    rng = np.random.default_rng(2)
    c = rng.standard_normal(v3.dim)
    c /= np.linalg.norm(c)
    x = np.einsum("i,ijk->jk", c, v3.m_generators)
    e_half = matrix_exp(0.5 * h * x)
    xis = v3.nbar_frame[:count].copy()
    targets = np.linalg.norm(xis.reshape(count, -1), axis=1)
    return v3.normal_frame, xis, np.eye(4), e_half, nsteps, targets


def _drift_atol(nsteps):
    # the reference conjugates its frames by the accumulated g, whose
    # round-off biases each step's norm by a growing number of ulps: its
    # drift carries round-off near 1e-16 n^2 per unit target
    return max(1e-12, 2e-16 * nsteps ** 2)


def _assert_state_matches(got, want, nsteps):
    """(xi_end, g_end, drift, min_ratio) against the reference's."""
    for a, b in zip(got[:2] + got[3:4], want[:2] + want[3:4]):
        assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(got[2], want[2], rtol=0.0, atol=_drift_atol(nsteps))


def _assert_matches_reference(got, want, nsteps):
    _assert_state_matches(got, want, nsteps)
    xi_end, g_end, _, _, samples, g_samples, n_samp = got
    assert n_samp == len(want[4])
    assert np.allclose(samples[:n_samp], want[4], atol=1e-12)
    assert np.allclose(g_samples[:n_samp], want[5], atol=1e-12)
    assert np.array_equal(samples[n_samp - 1], xi_end)
    assert np.array_equal(g_samples[n_samp - 1], g_end)


def test_transport_backends_agree(v3):
    frames, xis, g0, e_half, nsteps, targets = _transport_inputs(v3)
    got = transport_segment(frames, xis, g0, e_half, nsteps, targets)
    want = _transport_reference(frames, xis, g0, e_half, nsteps, targets)
    for a, b in zip(got[:4], want):
        assert np.allclose(a, b, atol=1e-12)


def test_transport_samples_match_reference(v3):
    frames, xis, g0, e_half, nsteps, targets = _transport_inputs(v3)
    xi_end, g_end, drift, min_ratio, samples, g_samples, n_samp = \
        transport_segment(frames, xis, g0, e_half, nsteps, targets,
                          sample_stride=15)
    want = _transport_reference(frames, xis, g0, e_half, nsteps, targets,
                                sample_stride=15)
    assert n_samp == len(want[4]) == 4       # start, steps 15, 30 and 40
    for a, b in zip((xi_end, g_end, drift, min_ratio,
                     samples[:n_samp], g_samples[:n_samp]), want):
        assert np.allclose(a, b, atol=1e-12)
    assert np.array_equal(samples[n_samp - 1], xi_end)


def test_transport_segment_norms_and_samples(v3):
    frames, xis, g0, e_half, nsteps, targets = _transport_inputs(v3)
    xi_end, g_end, drift, min_ratio, samples, g_samples, n_samp = \
        transport_segment(frames, xis, g0, e_half, nsteps, targets,
                          sample_stride=10)
    end_norms = np.linalg.norm(xi_end.reshape(2, -1), axis=1)
    assert np.allclose(end_norms, targets, atol=1e-13)
    assert np.all(drift < 1e-4)
    assert np.all(min_ratio > 0.99)
    assert n_samp == 5                       # start, steps 10, 20, 30, 40
    assert np.allclose(g_end.T @ g_end, np.eye(4), atol=1e-10)


def test_backend_flag_exposed():
    # one kernel path: no backend switch, flag or environment knob left
    import normholo

    for name in ("BACKEND", "HAS_NUMBA"):
        assert not hasattr(kernels, name)
        assert not hasattr(normholo, name)
    source = inspect.getsource(kernels)
    assert "NORMHOLO_NUMBA" not in source
    assert "numba" not in source


@pytest.mark.parametrize("nsteps", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                    3 * BLOCK + 5])
def test_blocked_stepper_matches_reference(v3, nsteps):
    frames, xis, g0, e_half, _, targets = _transport_inputs(v3, nsteps)
    got = transport_segment(frames, xis, g0, e_half, nsteps, targets)
    want = _transport_reference(frames, xis, g0, e_half, nsteps, targets)
    _assert_state_matches(got, want, nsteps)
    # a stride that divides no block: samples straddle block boundaries
    got = transport_segment(frames, xis, g0, e_half, nsteps, targets,
                            sample_stride=15)
    _assert_matches_reference(got, _transport_reference(
        frames, xis, g0, e_half, nsteps, targets, sample_stride=15), nsteps)


def test_one_sample_stride_over_blocks(v3):
    nsteps = 2 * BLOCK + 3
    frames, xis, g0, e_half, _, targets = _transport_inputs(v3, nsteps)
    got = transport_segment(frames, xis, g0, e_half, nsteps, targets,
                            sample_stride=nsteps)
    assert got[6] == 2                       # the start and the end
    _assert_matches_reference(got, _transport_reference(
        frames, xis, g0, e_half, nsteps, targets, sample_stride=nsteps),
        nsteps)


def test_stack_with_unrenormalized_vector(v3):
    # three vectors from a rotated start; the middle one has target 0, so
    # it is never renormalized and reports no drift
    nsteps = BLOCK + 7
    frames, xis, _, e_half, _, targets = _transport_inputs(v3, nsteps,
                                                           count=3)
    g0 = matrix_exp(0.3 * v3.m_generators[1])
    xis = g0[None] @ xis @ g0.T[None]
    targets[1] = 0.0
    got = transport_segment(frames, xis, g0, e_half, nsteps, targets,
                            sample_stride=10)
    want = _transport_reference(frames, xis, g0, e_half, nsteps, targets,
                                sample_stride=10)
    _assert_matches_reference(got, want, nsteps)
    assert got[2][1] == 0.0 and got[3][1] == 1.0
    assert got[2][0] > 0.0 and got[2][2] > 0.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
def test_drift_matches_extended_precision(v3):
    # 1000 steps of 1e-3: the per-step norm loss is a few ulp, so the
    # drift sits at round-off.  The stepper reads each loss as the growth
    # of a known vector and agrees with a long-double iteration of the
    # same step map; reading the norm of a vector renormalized in double
    # precision biased the drift low by several percent.
    frames, xis, g0, e_half, nsteps, targets = _transport_inputs(
        v3, nsteps=1000, h=1e-3, count=1)
    drift = transport_segment(frames, xis, g0, e_half, nsteps, targets)[2][0]
    step = kernels._step_matrix(frames, e_half).astype(np.longdouble)
    a = np.einsum("kij,ij->k", frames, xis[0]).astype(np.longdouble)
    target = np.longdouble(targets[0])
    want = np.longdouble(0.0)
    for _ in range(nsteps):
        a = step @ a
        nrm = np.sqrt(np.sum(a * a))
        want += abs(nrm - target)
        a *= target / nrm
    assert abs(drift - float(want)) <= 1e-3 * float(want)
