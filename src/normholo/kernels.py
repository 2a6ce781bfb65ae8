"""Hot numeric kernels: symmetric eigensolver, matrix exponential and the
parallel-transport stepper.

The eigensolver is LAPACK's (``numpy.linalg.eigh``) with a sign
convention on the eigenvectors; the exponential is scaled Taylor with
repeated squaring; the stepper is a vectorized update of whole vector
stacks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jacobi_eigh",
    "matrix_exp",
    "transport_segment",
]

_EXPM_THETA = 0.5
_EXPM_ORDER = 18


def _as_f64(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def jacobi_eigh(a):
    """Eigendecomposition of a symmetric matrix (LAPACK).

    Returns (w, V) with eigenvalues ascending and orthonormal columns;
    each eigenvector's largest-magnitude entry is made positive so the
    output is reproducible.  The name is kept because callers and the
    benchmark's per-layer metrics refer to it.
    """
    a = _as_f64(a)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    w, vecs = np.linalg.eigh(a)
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs = vecs * np.where(peak < 0.0, -1.0, 1.0)
    return w, vecs


# ---------------------------------------------------------------------------
# matrix exponential: Taylor with scaling and squaring
#
# The argument is scaled under Frobenius norm 1/2, an order-18 Horner
# evaluation leaves a remainder around 1e-23, then the result is squared
# back.  exp(0) is exactly the identity.


def matrix_exp(x):
    """exp of a square matrix via scaled Taylor with repeated squaring."""
    x = _as_f64(x)
    n = x.shape[0]
    nrm = np.sqrt(np.sum(x * x))
    s = 0
    y = x
    if nrm > _EXPM_THETA:
        s = int(np.ceil(np.log2(nrm / _EXPM_THETA)))
        y = x / (2.0 ** s)
    p = np.eye(n)
    for k in range(_EXPM_ORDER, 0, -1):
        p = np.eye(n) + (y / k) @ p
    for _ in range(s):
        p = p @ p
    return p


# ---------------------------------------------------------------------------
# parallel transport stepper
#
# Curve: c(t) = g(t) base g(t)^T with g(t) = g0 exp(t X), split into
# nsteps equal steps; e_half is exp applied to half a step of X.  The
# moving frame spanning the target bundle is the base frame conjugated
# by g(t); conjugation keeps it exactly orthonormal.  One step does
#
#   m1  = P_mid xi
#   d   = m1 - xi
#   dd  = P_mid d - P_prev d        (quadratic midpoint correction)
#   xi' = P_end (m1 + dd), renormalized to the stored target norm
#
# which is second-order accurate in the step; the accumulated
# pre-renormalization norm drift is returned for the transport audit.


def transport_segment(base_frames, xis, g0, e_half, nsteps, targets,
                      sample_stride=0, max_samples=0):
    """Run the transport stepper along one curve segment.

    base_frames: (K, R, R) orthonormal frame of the bundle at the orbit
    base point; the moving frame is its conjugate by g(t).
    xis: (M, R, R) vectors to transport, lying in the start fiber.
    targets: (M,) norms to renormalize to after each step (<= 0 skips).

    Returns (xi_end, g_end, drift, min_ratio, samples, g_samples, n_samp).
    """
    base_frames = _as_f64(base_frames)
    xi = _as_f64(xis).copy()
    g = _as_f64(g0).copy()
    e_half = _as_f64(e_half)
    targets = _as_f64(targets)
    r = base_frames.shape[1]
    mdim = xi.shape[0]
    if sample_stride > 0:
        cap = max_samples if max_samples > 0 else (nsteps // sample_stride + 2)
    else:
        cap = 1
    samples = np.zeros((cap, mdim, r, r))
    g_samples = np.zeros((cap, r, r))

    def conj_frames(g):
        return g[None, :, :] @ base_frames @ g.T[None, :, :]

    def project(frames, mats):
        coeff = np.einsum("kij,mij->mk", frames, mats)
        return np.einsum("mk,kij->mij", coeff, frames)

    f_prev = conj_frames(g)
    drift = np.zeros(mdim)
    min_ratio = np.ones(mdim)

    n_samp = 0
    if sample_stride > 0:
        samples[0] = xi
        g_samples[0] = g
        n_samp = 1

    for step in range(int(nsteps)):
        g_mid = g @ e_half
        f_mid = conj_frames(g_mid)
        g_end = g_mid @ e_half
        f_end = conj_frames(g_end)

        m1 = project(f_mid, xi)
        d = m1 - xi
        xi = project(f_end, m1 + project(f_mid, d) - project(f_prev, d))

        nrm = np.sqrt(np.einsum("mij,mij->m", xi, xi))
        for m in range(mdim):
            tgt = targets[m]
            if tgt > 0.0:
                ratio = nrm[m] / tgt
                if ratio < min_ratio[m]:
                    min_ratio[m] = ratio
                drift[m] += abs(nrm[m] - tgt)
                if nrm[m] > 0.0:
                    xi[m] *= tgt / nrm[m]

        g = g_end
        f_prev = f_end

        if sample_stride > 0 and ((step + 1) % sample_stride == 0
                                  or step == nsteps - 1):
            if n_samp < cap:
                samples[n_samp] = xi
                g_samples[n_samp] = g
                n_samp += 1

    return xi, g, drift, min_ratio, samples, g_samples, n_samp
