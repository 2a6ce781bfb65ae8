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
# back.  exp(0) is exactly the identity.  The identity is built once and
# added in place after each Horner product, which gives the same bits as
# a fresh identity per term.


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
    eye = np.eye(n)
    p = eye
    for k in range(_EXPM_ORDER, 0, -1):
        p = (y / k) @ p
        p += eye
    for _ in range(s):
        p = p @ p
    return p


# ---------------------------------------------------------------------------
# parallel transport stepper
#
# Curve: c(t) = g(t) base g(t)^T with g(t) = g0 exp(t X), split into
# nsteps equal steps; e_half is exp applied to half a step of X.  The
# moving frame spanning the target bundle is the base frame f_k
# conjugated by g(t).  One step, with P_prev, P_mid, P_end the
# projections onto the fibers at the step's start, midpoint and end,
# does
#
#   m1  = P_mid xi
#   d   = m1 - xi
#   dd  = P_mid d - P_prev d        (quadratic midpoint correction)
#   xi' = P_end (m1 + dd), renormalized to the stored target norm
#
# which is second-order accurate in the step; the accumulated
# pre-renormalization norm drift is returned for the transport audit.
#
# Conjugation by g is an isometry that carries the three fibers of a
# step at g to the fibers of the first step at the identity, so in
# coefficients a of xi = sum_k a_k g f_k g^T every step is one fixed
# K x K map a' = S a.  S is formed once per segment by stepping each
# base frame element at g = I; the loop then multiplies coefficients,
# renormalizes them and advances g.  Vectors are formed as matrices
# only at samples and at the end, renormalized there to the target
# norm, so the round-off of g never reaches the frame coefficients.


def _conjugate(g, frames):
    return g[None] @ frames @ g.T[None]


def _project(frames, mats):
    coeff = np.einsum("kij,mij->mk", frames, mats)
    return np.einsum("mk,kij->mij", coeff, frames)


def _step_matrix(base_frames, e_half):
    """S[j, k]: end-frame coefficient j of one step at g = I applied to f_k."""
    f_mid = _conjugate(e_half, base_frames)
    f_end = _conjugate(e_half @ e_half, base_frames)
    m1 = _project(f_mid, base_frames)
    d = m1 - base_frames
    stepped = m1 + _project(f_mid, d) - _project(base_frames, d)
    return np.einsum("jpq,kpq->jk", f_end, stepped)


def transport_segment(base_frames, xis, g0, e_half, nsteps, targets,
                      sample_stride=0):
    """Run the transport stepper along one curve segment.

    base_frames: (K, R, R) orthonormal frame of the bundle at the orbit
    base point; the moving frame is its conjugate by g(t).
    xis: (M, R, R) vectors to transport, lying in the start fiber.
    targets: (M,) norms to renormalize to after each step (<= 0 skips).

    Returns (xi_end, g_end, drift, min_ratio, samples, g_samples, n_samp).
    """
    base_frames = _as_f64(base_frames)
    xis = _as_f64(xis)
    g = _as_f64(g0).copy()
    e_half = _as_f64(e_half)
    targets = _as_f64(targets)
    r = base_frames.shape[1]
    mdim = xis.shape[0]
    cap = nsteps // sample_stride + 2 if sample_stride > 0 else 1
    samples = np.zeros((cap, mdim, r, r))
    g_samples = np.zeros((cap, r, r))

    # renormalizing factor per vector: 1 where the target is <= 0 (skip)
    # or the norm is 0
    live = (targets > 0.0)[:, None]
    t_col = np.where(live, targets[:, None], 1.0)

    def rescale(nrm):
        return t_col / np.where(live & (nrm > 0.0), nrm, t_col)

    def vectors(a, g):
        xi = np.einsum("mk,kij->mij", a, _conjugate(g, base_frames))
        nrm = np.sqrt(np.einsum("mij,mij->m", xi, xi))[:, None]
        return xi * rescale(nrm)[:, :, None]

    step_t = _step_matrix(base_frames, e_half).T

    a = np.einsum("kij,mij->mk", _conjugate(g, base_frames), xis)
    drift = np.zeros((mdim, 1))
    low = np.full((mdim, 1), np.inf)

    n_samp = 0
    if sample_stride > 0:
        samples[0] = xis
        g_samples[0] = g
        n_samp = 1

    for step in range(int(nsteps)):
        a = a @ step_t
        nrm = np.sqrt(np.einsum("mk,mk->m", a, a))[:, None]
        np.minimum(low, nrm, out=low)
        drift += np.abs(nrm - t_col)
        a *= rescale(nrm)
        g = (g @ e_half) @ e_half

        if sample_stride > 0 and ((step + 1) % sample_stride == 0
                                  or step == nsteps - 1):
            samples[n_samp] = vectors(a, g)
            g_samples[n_samp] = g
            n_samp += 1

    drift = np.where(live, drift, 0.0)[:, 0]
    min_ratio = np.where(live, np.minimum(1.0, low / t_col), 1.0)[:, 0]
    xi = vectors(a, g) if nsteps > 0 else xis.copy()
    return xi, g, drift, min_ratio, samples, g_samples, n_samp
