"""Parallel transport in the normal bundle of an orbit.

Curves on an orbit are piecewise one-parameter subgroup arcs
c(t) = g(t) v g(t)^T with g(t) = g0 exp(tX).  Along such an arc the
bundle moves by conjugation: with a fixed orthonormal frame f_k of the
fiber at v, the frame g f_k g^T stays exactly orthonormal, and a field
xi = sum_k a_k g f_k g^T is parallel exactly when a' = -B_X a, where
B_X[k, l] = <f_k, [X, f_l]> is a constant K x K skew matrix, the
:func:`normholo.srep.frame_action` of X on the frame.  Transport
along a piecewise curve is therefore one K x K orthogonal matrix, a
product of exponentials: :func:`exact_transport` returns it, the loop
probe's frame return and the tube feet carry frame coefficients through
it, :func:`exact_transport_vector` maps one normal vector to the curve
end, and the tube chart stacks one-arc factors exp(-B_X).  On the
tangent frame the same generators give the closed-form nabla alpha of
:func:`normholo.veronese.parallel_alpha_residual`.

Each :class:`OrbitCurve` forms exp(tX) of all its arcs once, on
construction, in one batched :func:`normholo.linalg.matrix_exp` call;
its endpoint, the closure checks and the group factor of exact
transport reuse those exponentials, and :func:`exact_transport` forms
its coefficient factors in one such call.  The frame return and the
square loops are written for stacks of curves: :func:`square_loop_returns`
closes L loops and returns their frame returns with one call each for
the side exponentials, the closure logs and arcs, and the transports,
and :func:`transport_frame_return` is that code on a stack of one.

The step-by-step scheme in :mod:`normholo.kernels` (project onto the
next fiber, apply one midpoint correction, renormalize) is kept as the
audited discretization behind :func:`parallel_transport_stack`.  It also
runs on frame coefficients: one step of the scheme is the same K x K
map at every point of an arc, formed once per segment from the
projections alone, never from B_X, so it stays independent of the
exact transport it is audited against.  The kernel renormalizes at the
starts of blocks of steps, a short sequential chain, and forms every
step of every block in batched products with the powers of that map;
the scheme and its renormalization are unchanged.  It measures close to
third-order endpoint convergence on the audit; the certified contract
is the first-order one, and :func:`transport_convergence_audit` reports
the observed order so a regression is visible in reports.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, TransportDiverged
from .kernels import transport_segment
from .linalg import (check_duration, check_positive, check_skew, matrix_exp,
                     orthogonal_log)
from .orbit import OrbitSubmanifold, traceless_spectra_at
from .srep import frame_action

DEFAULT_STEP = 1e-3

# A projection step that eats more than half the vector means the fiber
# turned too fast for the step size; results past that point are noise.
MIN_NORM_RATIO = 0.5

CLOSURE_TOL = 1e-9   # endpoint-to-base-point distance of a closed curve

# Steps allowed on one segment: renormalization round-off grows like
# 1e-16 n^2 (_roundoff_drift_floor) and truncation error falls like 1/n,
# so past 1e6 steps a finer step only adds round-off (or never ends).
MAX_STEPS_PER_SEGMENT = 10 ** 6


def _check_skew(x: np.ndarray, r: int, ndim: int = 2) -> np.ndarray:
    """x checked as a skew (r, r) generator to 1e-10 relative
    (linalg.check_skew), or an (L, r, r) stack of them with ndim=3."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim or x.shape[-2:] != (r, r):
        raise InvalidInput(f"generator shape {x.shape}, expected {(r, r)}")
    check_skew(x, 1e-10)
    return x


class OrbitCurve:
    """Piecewise one-parameter-subgroup curve on an orbit.

    segments: tuple of (X, duration) with X skew; the curve runs
    c(t) = g(t) c(0) g(t)^T where g advances by exp(tX) on each piece.
    arc_exps holds exp(duration X) of each piece (None where the
    duration is 0); all of them are formed in one batched call, on
    construction.
    """

    __slots__ = ("orbit", "segments", "step", "arc_exps")

    def __init__(self, orbit: OrbitSubmanifold, segments: tuple,
                 step: float = DEFAULT_STEP):
        r = orbit.rep.total_size
        cleaned = []
        for x, t in segments:
            dur = check_duration("segment duration", t)
            cleaned.append((_check_skew(x, r), dur))
        step = check_positive("step", step)
        self.orbit, self.segments, self.step = orbit, tuple(cleaned), step
        # exp(dur X) of every nonzero arc in one stack; None for dur = 0
        exps = iter(matrix_exp(np.array(
            [dur * x for x, dur in cleaned if dur > 0.0]).reshape(-1, r, r)))
        self.arc_exps = tuple(next(exps) if dur > 0.0 else None
                              for _, dur in cleaned)

    @classmethod
    def from_tangent_coords(cls, orbit: OrbitSubmanifold, pieces: Sequence,
                            step: float = DEFAULT_STEP) -> "OrbitCurve":
        """Build segments from tangent coordinates at the base point.

        Each piece is (coeffs, duration); coeffs are coordinates in the
        orbit tangent frame and are lifted to so(r) through the orbit's
        m-generators.
        """
        segs = []
        for coeffs, dur in pieces:
            c = np.asarray(coeffs, dtype=np.float64)
            if c.shape != (orbit.dim,):
                raise InvalidInput("tangent coefficient length mismatch")
            segs.append((np.einsum("i,ijk->jk", c, orbit.m_generators), dur))
        return cls(orbit=orbit, segments=tuple(segs), step=step)

    @property
    def total_time(self) -> float:
        return float(sum(d for _, d in self.segments))

    def group_path_end(self) -> np.ndarray:
        g = np.eye(self.orbit.rep.total_size)
        for e in self.arc_exps:
            if e is not None:
                g = g @ e
        return g

    def endpoint(self) -> np.ndarray:
        g = self.group_path_end()
        return g @ self.orbit.point @ g.T

    def is_closed(self) -> bool:
        return _all_closed(self.orbit.point, self.group_path_end()[None])

    def _arcs(self):
        """Arc generators and durations as a stack of one curve."""
        r = self.orbit.rep.total_size
        return (np.array([x for x, _ in self.segments]).reshape(1, -1, r, r),
                np.array([[dur for _, dur in self.segments]]))


def _all_closed(point: np.ndarray, g_ends: np.ndarray) -> bool:
    """Whether each group path end of the stack fixes the base point."""
    ends = g_ends @ point @ np.swapaxes(g_ends, 1, 2)
    return bool(np.all(np.linalg.norm(ends - point, axis=(1, 2))
                       <= CLOSURE_TOL))


def _square_closures(orbit: OrbitSubmanifold, xs: np.ndarray,
                     ys: np.ndarray, radius: float):
    """Arc generators, durations and group path ends of the closed
    loops exp(sX) exp(sY) exp(-sX) exp(-sY) exp(W) of (L, R, R) stacks
    xs, ys.  The four-arc group commutator misses the identity by
    O(s^2); the fifth arc W = -log of the defect closes it, which
    _frame_returns checks at CLOSURE_TOL.  The 4L sides, the L defect
    logs and the L closure arcs take one call each."""
    r = orbit.rep.total_size
    xs = _check_skew(xs, r, ndim=3)
    ys = _check_skew(ys, r, ndim=3)
    s = check_positive("loop radius", radius)
    sides = np.stack([xs, ys, -xs, -ys], axis=1)
    exps = matrix_exp(s * sides.reshape(-1, r, r)).reshape(sides.shape)
    g = np.eye(r)
    for j in range(4):
        g = g @ exps[:, j]
    w = -orthogonal_log(g)
    g = g @ matrix_exp(w)
    return (np.concatenate([sides, w[:, None]], axis=1),
            np.array([s, s, s, s, 1.0]), g)


class TransportResult(NamedTuple):
    """Outcome of transporting a stack of normal vectors with the stepper."""

    curve: OrbitCurve
    xis_start: np.ndarray        # (M, R, R)
    xis_end: np.ndarray          # (M, R, R)
    g_end: np.ndarray            # (R, R)
    times: np.ndarray            # (S,)
    samples: np.ndarray          # (S, M, R, R)
    g_samples: np.ndarray        # (S, R, R)
    drift: float                 # max pre-renormalization norm drift
    min_ratio: float
    step: float
    end_holonomy_defect: float | None    # None unless the curve is closed

    @property
    def xi_end(self) -> np.ndarray:
        return self.xis_end[0]

    def fiber_residual(self) -> float:
        """Max distance of the sampled vectors from the sampled fibers."""
        frames = np.einsum("sip,kpq,sjq->skij", self.g_samples,
                           self.curve.orbit.normal_frame, self.g_samples)
        coeffs = np.einsum("skij,smij->smk", frames, self.samples)
        gap = self.samples - np.einsum("smk,skij->smij", coeffs, frames)
        return float(np.max(np.sqrt(np.einsum("smij,smij->sm", gap, gap)),
                            initial=0.0))


def parallel_transport_stack(curve: OrbitCurve, xis: np.ndarray,
                             step: float | None = None,
                             samples_per_segment: int = 16) -> TransportResult:
    """Transport a stack of normal vectors along the curve with the stepper.

    Norms are renormalized to their initial values after every step; the
    accumulated pre-renormalization drift and the worst single-step norm
    ratio are reported.  A ratio below MIN_NORM_RATIO aborts with
    TransportDiverged.
    """
    orbit = curve.orbit
    h = check_positive("step", step if step is not None else curve.step)
    longest = max((dur for _, dur in curve.segments), default=0.0)
    if longest / h > MAX_STEPS_PER_SEGMENT:
        raise InvalidInput(
            f"step {h:.3g} needs over {MAX_STEPS_PER_SEGMENT} steps on a "
            f"segment; use a step >= {longest / MAX_STEPS_PER_SEGMENT:.3g}")
    xis = orbit.normal_stack(xis)
    r = orbit.rep.total_size
    targets = np.linalg.norm(xis.reshape(len(xis), r * r), axis=1)

    g = np.eye(r)
    cur = xis.copy()
    drift, min_ratio = 0.0, 1.0
    times, all_samples, all_g = [np.zeros(1)], [cur[None]], [g[None]]
    t0 = 0.0
    for x, dur in curve.segments:
        if dur == 0.0:
            continue
        nsteps = max(1, int(np.ceil(dur / h)))
        hseg = dur / nsteps
        stride = max(1, nsteps // max(1, samples_per_segment))
        e_half = matrix_exp(0.5 * hseg * x)
        cur, g, seg_drift, seg_ratio, samples, g_samples, n_samp = \
            transport_segment(orbit.normal_frame, cur, g, e_half, nsteps,
                              targets, sample_stride=stride)
        drift += float(np.max(seg_drift, initial=0.0))
        min_ratio = min(min_ratio, float(np.min(seg_ratio, initial=1.0)))
        # sample 0 is the segment's start state, already recorded; sample
        # i >= 1 is the state after step min(i * stride, nsteps)
        k = np.minimum(np.arange(1, n_samp) * stride, nsteps)
        times.append(np.where(k == nsteps, t0 + dur, t0 + k * hseg))
        all_samples.append(samples[1:])
        all_g.append(g_samples[1:])
        t0 += dur
        if min_ratio < MIN_NORM_RATIO:
            raise TransportDiverged(
                f"projection ratio {min_ratio:.3f} fell below "
                f"{MIN_NORM_RATIO}; reduce the step size")

    defect = None
    if curve.is_closed():
        defect = float(np.max(np.linalg.norm(
            (cur - xis).reshape(len(xis), r * r), axis=1), initial=0.0))
    return TransportResult(
        curve=curve, xis_start=xis, xis_end=cur, g_end=g,
        times=np.concatenate(times), samples=np.concatenate(all_samples),
        g_samples=np.concatenate(all_g), drift=drift,
        min_ratio=float(min_ratio), step=h, end_holonomy_defect=defect)


def _exact_transports(orbit: OrbitSubmanifold, gens: np.ndarray,
                      durs: np.ndarray) -> np.ndarray:
    """(L, K, K) exact transports of L curves from their (L, S, R, R) arc
    generators and durations, one exponential call for all L S arcs."""
    l, n_arcs, r, _ = gens.shape
    k = orbit.codim
    b = frame_action(gens.reshape(-1, r, r), orbit.normal_frame)
    durs = np.broadcast_to(durs, (l, n_arcs)).reshape(-1, 1, 1)
    exps = matrix_exp(-durs * b).reshape(l, n_arcs, k, k)
    t = np.tile(np.eye(k), (l, 1, 1))
    # a zero-duration arc contributes exp(0) = I exactly, and I @ t = t
    for j in range(n_arcs):
        t = exps[:, j] @ t
    return t


def _frame_returns(orbit: OrbitSubmanifold, gens: np.ndarray,
                   durs: np.ndarray, g_ends: np.ndarray) -> np.ndarray:
    """(L, K, K) frame returns O = A T (transport_frame_return) of L
    closed curves from their arcs and (L, R, R) group path ends."""
    if not _all_closed(orbit.point, g_ends):
        raise InvalidInput("frame return requires a closed curve")
    frame = orbit.normal_frame
    moved = g_ends[:, None] @ frame @ np.swapaxes(g_ends, 1, 2)[:, None]
    slice_image = np.einsum("kij,lmij->lkm", frame, moved)
    return slice_image @ _exact_transports(orbit, gens, durs)


def exact_transport(curve: OrbitCurve) -> np.ndarray:
    """The K x K orthogonal transport matrix of the curve in frame coefficients.

    T = prod_i exp(-t_i B_{X_i}) with later arcs on the left (see the
    module docstring): a normal vector with coefficients a on the frame
    at c(0) arrives as g (sum_k (T a)_k f_k) g^T, g the group path end.
    """
    return _exact_transports(curve.orbit, *curve._arcs())[0]


def exact_transport_vector(curve: OrbitCurve, xi: np.ndarray) -> np.ndarray:
    """Exact parallel translate of one normal vector to the curve end."""
    orbit = curve.orbit
    start = orbit.normal_coords(orbit.normal_stack(xi)[0])
    coeffs = exact_transport(curve) @ start
    g = curve.group_path_end()
    return g @ orbit.normal_vector(coeffs) @ g.T


def parallel_transport_normal(curve: OrbitCurve, xi0: np.ndarray,
                              step: float | None = None,
                              samples_per_segment: int = 16) -> TransportResult:
    """Transport a single normal vector; see parallel_transport_stack."""
    return parallel_transport_stack(curve, np.asarray(xi0)[None], step=step,
                                    samples_per_segment=samples_per_segment)


def transport_frame_return(curve: OrbitCurve) -> np.ndarray:
    """Coefficient matrix of the transported normal frame for a closed curve.

    Returns the K x K matrix O with O[k, l] = <tau(f_l), f_k>, the
    holonomy element of the loop expressed in the base normal frame:
    O = A T with T the exact transport matrix and A[k, m] =
    <f_k, g f_m g^T> the slice image of the group path end g, which
    turns the moving frame back to the base frame when g fixes c(0).
    O is orthogonal to round-off.
    """
    return _frame_returns(curve.orbit, *curve._arcs(),
                          curve.group_path_end()[None])[0]


def square_loop_returns(orbit: OrbitSubmanifold, xs: np.ndarray,
                        ys: np.ndarray, radius: float) -> np.ndarray:
    """The transport_frame_return of the closed square loop of radius
    radius for each x, y of the (L, R, R) stacks, evaluated as one
    stack: null-homotopic loops at the base point for holonomy probes."""
    gens, durs, g_ends = _square_closures(orbit, xs, ys, radius)
    return _frame_returns(orbit, gens, durs, g_ends)


class ConvergenceAudit(NamedTuple):
    """Richardson comparison of transports at step h, h/2, h/4."""

    steps: tuple
    drifts: tuple
    endpoint_gaps: tuple      # (|xi_h - xi_{h/2}|, |xi_{h/2} - xi_{h/4}|)
    order_estimate: float
    drift_halving_ok: bool


def _roundoff_drift_floor(curve: OrbitCurve, h: float, scale: float) -> float:
    # A bound on the accumulated renormalization round-off, roughly
    # machine epsilon per step squared: the growth that frames conjugated
    # by the never re-orthogonalized group element would give.  The
    # stepper keeps frame coefficients, so g does not enter the norms
    # and the bound is conservative.  Below this floor the halving
    # contract is vacuous.
    nsteps = sum(max(1, int(np.ceil(dur / h))) for _, dur in curve.segments
                 if dur > 0.0)
    return 1e-16 * nsteps * nsteps * (1.0 + scale)


def transport_convergence_audit(curve: OrbitCurve, xi0: np.ndarray,
                                step: float | None = None) -> ConvergenceAudit:
    """Audit convergence of the transport scheme by step halving.

    The certified contract is first order: halving the step at least
    halves the pre-renormalization drift, up to the round-off floor.
    The order estimate comes from endpoint Richardson differences; the
    baseline step is lifted to total_time/64 if the requested step is
    finer, so the differences sit above round-off where an order is
    measurable at all.  (The stepper itself shows close to third-order
    endpoint convergence in that regime.)
    """
    h = check_positive("step", step if step is not None else curve.step)
    total = curve.total_time
    if total > 0.0:
        h = max(h, total / 64.0)
    runs = [parallel_transport_normal(curve, xi0, step=h / (2 ** k),
                                      samples_per_segment=1)
            for k in range(3)]
    gaps = (float(np.linalg.norm(runs[0].xi_end - runs[1].xi_end)),
            float(np.linalg.norm(runs[1].xi_end - runs[2].xi_end)))
    if gaps[1] > 1e-15:
        order = float(np.log2(gaps[0] / gaps[1]))
    else:
        order = np.inf
    drifts = tuple(r.drift for r in runs)
    scale = float(np.linalg.norm(xi0))
    ok = all(
        drifts[k + 1] <= 0.5 * drifts[k]
        + _roundoff_drift_floor(curve, h / (2 ** (k + 1)), scale)
        for k in range(2))
    return ConvergenceAudit(steps=(h, h / 2, h / 4), drifts=drifts,
                            endpoint_gaps=gaps, order_estimate=order,
                            drift_halving_ok=ok)


def traceless_spectra_along(result: TransportResult) -> tuple:
    """Spectra of the traceless shape operator along the first transported
    vector, at no more than 12 of its samples.

    Rebuilds the orbit data honestly at the sampled curve points, in one
    traceless_spectra_at call with the orbit's tolerances, instead of
    pushing the base-point operator forward, so transport error shows up
    as eigenvalue drift.  Returns (times, spectra) with spectra of shape
    (S, dim M).
    """
    orbit = result.curve.orbit
    n_samples = result.samples.shape[0]
    # steps of 1, or of (n_samples - 1) / 11 > 1, floor to distinct indices
    idx = np.linspace(0, n_samples - 1, min(n_samples, 12)).astype(int)
    g = result.g_samples[idx]
    points = g @ orbit.point @ np.swapaxes(g, 1, 2)
    spectra, _ = traceless_spectra_at(orbit.rep, points,
                                      result.samples[idx, 0], orbit.tols)
    return result.times[idx], np.array(spectra)
