"""Hot numeric kernels: symmetric eigensolver, matrix exponential and the
parallel-transport stepper.

The eigensolver is LAPACK's (``numpy.linalg.eigh``) with a sign
convention on the eigenvectors; the exponential is scaled Taylor with
repeated squaring, on one matrix or a stack; the stepper advances whole
vector stacks a block of steps at a time.
"""

from __future__ import annotations

import bisect
import math

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
# The argument is scaled under Frobenius norm 1/2, summed by Horner's
# rule and squared back.  The order is the smallest m <= 18 whose first
# dropped term theta^(m+1)/(m+1)!, relative to the scaled norm theta, is
# at most the 0.5^18/19! order 18 leaves at theta = 1/2 (Moler & Van
# Loan, SIAM Rev. 2003): order 6 for a half step of norm 5e-4.  Taken
# relative to theta, the dropped terms stay far below the last bit of
# the small entries, so the result keeps the order-18 bits.  exp(0) is
# exactly the identity, which is added in place after each product (the
# bits of a fresh identity per term).  A stack sums at the order of its
# largest scaled norm, each matrix scaled by its own power of two and
# squared back as often as that needs, so every slice has the bits of
# the 2-D call on it; a stack of one takes the cheaper 2-D path.

# _EXPM_REACH[m - 1]: the largest scaled norm that order m serves
# (plain floats: a numpy table at import costs about 0.2 MB of RSS)
_EXPM_REACH = [(math.factorial(m + 1) * _EXPM_THETA ** _EXPM_ORDER
                / math.factorial(_EXPM_ORDER + 1)) ** (1.0 / m)
               for m in range(1, _EXPM_ORDER + 1)]


def _squarings(nrm):
    """Squarings that bring Frobenius norms nrm down to _EXPM_THETA."""
    return np.ceil(np.log2(np.maximum(nrm, _EXPM_THETA)
                           / _EXPM_THETA)).astype(int)


def _taylor_order(theta):
    """Taylor order for a scaled Frobenius norm theta <= _EXPM_THETA."""
    return min(_EXPM_ORDER, 1 + bisect.bisect_left(_EXPM_REACH, theta))


def _taylor(y, eye, order):
    p = eye
    for k in range(order, 0, -1):
        p = (y / k) @ p
        p += eye
    return p


def _expm_one(x, eye):
    nrm = np.sqrt(np.sum(x * x))
    s = int(_squarings(nrm))
    p = _taylor(x / 2.0 ** s if s else x, eye, _taylor_order(nrm / 2.0 ** s))
    for _ in range(s):
        p = p @ p
    return p


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
    nrm = np.sqrt(np.sum((x * x).reshape(len(x), n * n), axis=1))
    s = _squarings(nrm)
    scale = 2.0 ** s
    p = _taylor(x / scale[:, None, None], eye,
                _taylor_order(np.max(nrm / scale, initial=0.0)))
    for k in range(1, s.max(initial=0) + 1):
        sq = s >= k
        p[sq] = p[sq] @ p[sq]
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
# and commutes with S, so it runs only at block starts, a short chain
# (a S^(BLOCK-1) S and g E^BLOCK, E = e_half^2); the iterates a S^i of
# all blocks are batched products with the powers of S, at most
# _STACK_STEPS steps at a time.  The pre-renormalization norm of step i
# is |(a S^(i-1)) S| / |a S^(i-1)| times the target, so the drift
# carries one-step round-off, not the i-fold round-off of a power.
# Vectors are formed as matrices only at the samples (the end is the
# last), in one stacked conjugation by g, renormalized there, so the
# round-off of g never reaches the frame coefficients.

BLOCK = 64
_STACK_STEPS = 4096


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
    The samples are the start state, the state after every
    sample_stride-th step (if > 0) and the end state.

    Returns (xi_end, g_end, drift, min_ratio, samples, g_samples, n_samp).
    """
    base_frames = _as_f64(base_frames)
    xis = _as_f64(xis)
    g = _as_f64(g0).copy()
    e_half = _as_f64(e_half)
    targets = _as_f64(targets)
    nsteps = int(nsteps)
    mdim, kdim = len(xis), len(base_frames)
    if nsteps <= 0:
        return (xis.copy(), g, np.zeros(mdim), np.ones(mdim), xis[None],
                g[None], 1)

    # renormalizing factor per vector: 1 where the target is <= 0 (skip)
    # or the norm is 0
    live = targets > 0.0
    t_row = np.where(live, targets, 1.0)

    def rescale(nrm):
        return t_row / np.where(live & (nrm > 0.0), nrm, t_row)

    step_t = _step_matrix(base_frames, e_half).T
    span = min(BLOCK, nsteps)
    s_pows = _powers(step_t, span - 1)             # S^0 .. S^(span-1)
    e_pows = _powers(e_half @ e_half, span)        # E^0 .. E^span

    full, tail = divmod(nsteps, BLOCK)
    nblocks = full + (tail > 0)
    starts = np.empty((nblocks, mdim, kdim))
    g_starts = np.empty((nblocks,) + g.shape)
    a = np.einsum("kij,mij->mk", _conjugate(g, base_frames), xis)
    for b in range(nblocks):
        if b:       # the block before is a full one
            a = a @ s_pows[BLOCK - 1] @ step_t
            g = g @ e_pows[BLOCK]
        a = a * rescale(np.sqrt(np.einsum("mk,mk->m", a, a)))[:, None]
        starts[b], g_starts[b] = a, g

    # the sample steps, the end last: block of each and row in the block
    every = sample_stride if sample_stride > 0 else nsteps
    blk, row = np.divmod(np.array([*range(every, nsteps, every), nsteps])
                         - 1, BLOCK)
    coeffs = np.empty((len(blk), mdim, kdim))
    low, sums = np.full(mdim, np.inf), []
    edges = [*range(0, full, _STACK_STEPS // BLOCK), full]
    edges += [nblocks] * (tail > 0)
    for lo, hi in zip(edges, edges[1:]):
        # [b, i]: the iterate after i and after i + 1 steps of block lo + b
        before = starts[lo:hi, None] @ s_pows[:BLOCK if lo < full else tail]
        after = before @ step_t
        n_before = np.sqrt(np.einsum("bimk,bimk->bim", before, before))
        n_after = np.sqrt(np.einsum("bimk,bimk->bim", after, after))
        nrm = t_row * n_after / np.where(n_before > 0.0, n_before, 1.0)
        low = np.minimum(low, np.min(nrm, axis=(0, 1)))
        sums.append(np.sum(np.abs(nrm - t_row), axis=1))
        at = slice(*np.searchsorted(blk, (lo, hi)))
        coeffs[at] = after[blk[at] - lo, row[at]]
    # block after block, in order (a cumsum, not numpy's pairwise sum)
    drift = np.cumsum(np.concatenate(sums), axis=0)[-1]

    gs = g_starts[blk] @ e_pows[row + 1]
    frames = gs[:, None] @ base_frames @ np.swapaxes(gs, 1, 2)[:, None]
    vecs = np.einsum("smk,skij->smij", coeffs, frames)
    vecs *= rescale(np.sqrt(np.einsum("smij,smij->sm", vecs, vecs)))[
        ..., None, None]
    samples = np.concatenate([xis[None], vecs])
    return (vecs[-1], gs[-1], np.where(live, drift, 0.0),
            np.where(live, np.minimum(1.0, low / t_row), 1.0), samples,
            np.concatenate([g_starts[:1], gs]), len(samples))
