"""Kernel-level checks: contracts of the one kernel path, scipy oracles."""

import inspect

import numpy as np
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from normholo import kernels
from normholo.kernels import jacobi_eigh, matrix_exp, transport_segment


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


def _transport_inputs(v3):
    """A short real segment on the Veronese threefold."""
    rng = np.random.default_rng(2)
    c = rng.standard_normal(v3.dim)
    c /= np.linalg.norm(c)
    x = np.einsum("i,ijk->jk", c, v3.m_generators)
    nsteps = 40
    h = 0.5 / nsteps
    e_half = matrix_exp(0.5 * h * x)
    xis = v3.nbar_frame[:2].copy()
    targets = np.linalg.norm(xis.reshape(2, -1), axis=1)
    return v3.normal_frame, xis, np.eye(4), e_half, nsteps, targets


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
