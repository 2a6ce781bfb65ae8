"""Hot numeric kernels: symmetric eigensolver, matrix exponential and the
parallel-transport stepper.

The eigensolver is LAPACK's (``numpy.linalg.eigh``) with a sign
convention on the eigenvectors; the exponential is scaled Taylor with
repeated squaring, on one matrix or a stack; the stepper advances whole
vector stacks a block of steps at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK",
    "jacobi_eigh",
    "matrix_exp",
    "transport_segment",
]

_EXPM_THETA = 0.5
_EXPM_ORDER = 18


def _as_f64(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def jacobi_eigh(a):
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    stack (LAPACK).

    Returns (w, V) with eigenvalues ascending and orthonormal columns;
    each eigenvector's largest-magnitude entry is made positive so the
    output is reproducible.  The name is kept because callers and the
    benchmark's per-layer metrics refer to it.
    """
    a = _as_f64(a)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape)
    w, vecs = np.linalg.eigh(a)
    mats = vecs.reshape(-1, n, n)
    peak = mats[np.arange(len(mats))[:, None], np.abs(mats).argmax(axis=1),
                np.arange(n)]
    vecs = vecs * np.where(peak < 0.0, -1.0, 1.0).reshape(w.shape[:-1]
                                                           + (1, n))
    return w, vecs


# ---------------------------------------------------------------------------
# matrix exponential: Taylor with scaling and squaring
#
# The argument is scaled under Frobenius norm 1/2, an order-18 Horner
# evaluation leaves a remainder around 1e-23, then the result is squared
# back.  exp(0) is exactly the identity.  The identity is built once and
# added in place after each Horner product, which gives the same bits as
# a fresh identity per term.  A stack of two or more runs its Taylor
# sums as batched products, with each matrix scaled by its own power of
# two and squared back only as often as that scaling needs, so every
# slice has the bits of the 2-D call on that matrix.  A stack of one
# takes the 2-D path, whose plain products cost less than batched ones.


def _squarings(nrm):
    """Squarings that bring a Frobenius norm nrm down to _EXPM_THETA."""
    if nrm > _EXPM_THETA:
        return int(np.ceil(np.log2(nrm / _EXPM_THETA)))
    return 0


def _taylor(y, eye):
    p = eye
    for k in range(_EXPM_ORDER, 0, -1):
        p = (y / k) @ p
        p += eye
    return p


def _square(p, s):
    for _ in range(s):
        p = p @ p
    return p


def _expm_one(x, eye):
    s = _squarings(np.sqrt(np.sum(x * x)))
    return _square(_taylor(x / 2.0 ** s if s else x, eye), s)


def matrix_exp(x):
    """exp of a square matrix, or of each matrix of an (N, n, n) stack,
    via scaled Taylor with repeated squaring."""
    x = _as_f64(x)
    n = x.shape[-1]
    eye = np.eye(n)
    if x.ndim == 2:
        return _expm_one(x, eye)
    if len(x) == 1:
        return _expm_one(x[0], eye)[None]
    s = [_squarings(v)
         for v in np.sqrt(np.sum((x * x).reshape(len(x), n * n), axis=1))]
    p = _taylor(x / np.array([2.0 ** k for k in s])[:, None, None], eye)
    for j, k in enumerate(s):
        if k:
            p[j] = _square(p[j], k)
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
# base frame element at g = I.  Renormalizing is a scalar per vector
# and commutes with S, so the steps are evaluated in blocks of up to
# BLOCK: with a renormalized at the block start, the iterates inside the
# block are a S^i, formed in one batched product with the powers of S,
# and g advances by powers of E = e_half^2.  The pre-renormalization
# norm of step i is |(a S^(i-1)) S| / |a S^(i-1)| times the target: the
# one-step growth of a known vector, so the drift carries one-step
# round-off, not the i-fold round-off of a power.  Vectors are formed
# as matrices only at samples and at the end, renormalized there to the
# target norm, so the round-off of g never reaches the frame
# coefficients.

BLOCK = 64


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


def _powers(m, count):
    """(count + 1, n, n) stack m^0, m^1, ..., m^count, by doubling."""
    pows = np.empty((count + 1,) + m.shape)
    pows[0] = np.eye(len(m))
    if count:
        pows[1] = m
    done = 1
    while done < count:
        take = min(done, count - done)
        pows[done + 1:done + 1 + take] = pows[1:1 + take] @ pows[done]
        done += take
    return pows


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
    nsteps = int(nsteps)
    r = base_frames.shape[1]
    mdim = xis.shape[0]
    cap = nsteps // sample_stride + 2 if sample_stride > 0 else 1
    samples = np.zeros((cap, mdim, r, r))
    g_samples = np.zeros((cap, r, r))

    # renormalizing factor per vector: 1 where the target is <= 0 (skip)
    # or the norm is 0
    live = targets > 0.0
    t_row = np.where(live, targets, 1.0)

    def rescale(nrm):
        return t_row / np.where(live & (nrm > 0.0), nrm, t_row)

    def vectors(a, g):
        xi = np.einsum("mk,kij->mij", a, _conjugate(g, base_frames))
        nrm = np.sqrt(np.einsum("mij,mij->m", xi, xi))
        return xi * rescale(nrm)[:, None, None]

    step_t = _step_matrix(base_frames, e_half).T
    span = min(BLOCK, nsteps)
    s_pows = _powers(step_t, max(span - 1, 0))     # S^0 .. S^(span-1)
    e_pows = _powers(e_half @ e_half, span)        # E^0 .. E^span

    a = np.einsum("kij,mij->mk", _conjugate(g, base_frames), xis)
    drift = np.zeros(mdim)
    low = np.full(mdim, np.inf)

    n_samp = 0
    if sample_stride > 0:
        samples[0] = xis
        g_samples[0] = g
        n_samp = 1

    for done in range(0, nsteps, BLOCK):
        m = min(BLOCK, nsteps - done)
        a = a * rescale(np.sqrt(np.einsum("mk,mk->m", a, a)))[:, None]
        # row i: the iterate after i steps, and after one more
        before = a @ s_pows[:m]
        after = before @ step_t
        n_before = np.sqrt(np.einsum("imk,imk->im", before, before))
        n_after = np.sqrt(np.einsum("imk,imk->im", after, after))
        nrm = t_row * n_after / np.where(n_before > 0.0, n_before, 1.0)
        low = np.minimum(low, np.min(nrm, axis=0))
        drift += np.sum(np.abs(nrm - t_row), axis=0)

        if sample_stride > 0:
            # steps done + j of this block that close a stride, and the
            # last step of the segment
            js = list(range(sample_stride - done % sample_stride, m + 1,
                            sample_stride))
            if done + m == nsteps and m not in js:
                js.append(m)
            for j in js:
                g_samples[n_samp] = g @ e_pows[j]
                samples[n_samp] = vectors(after[j - 1], g_samples[n_samp])
                n_samp += 1

        a = after[m - 1]
        g = g @ e_pows[m]

    drift = np.where(live, drift, 0.0)
    min_ratio = np.where(live, np.minimum(1.0, low / t_row), 1.0)
    xi = vectors(a, g) if nsteps > 0 else xis.copy()
    return xi, g, drift, min_ratio, samples, g_samples, n_samp
