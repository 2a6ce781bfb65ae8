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
its coefficient factors in one such call.

The step-by-step scheme in :mod:`normholo.kernels` (project onto the
next fiber, apply one midpoint correction, renormalize) is kept as the
audited discretization behind :func:`parallel_transport_stack`.  It also
runs on frame coefficients: one step of the scheme is the same K x K
map at every point of an arc, formed once per segment from the
projections alone, never from B_X, so it stays independent of the
exact transport it is audited against.  The kernel evaluates the steps
in blocks, as products with the powers of that map; the scheme and its
renormalization are unchanged.  It measures close to
third-order endpoint convergence on the audit; the certified contract
is the first-order one, and :func:`transport_convergence_audit` reports
the observed order so a regression is visible in reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput, TransportDiverged
from .kernels import transport_segment
from .linalg import matrix_exp, orthogonal_log, sym_eig
from .orbit import OrbitSubmanifold, build_orbit, traceless_shape_operator
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


def _check_skew(x: np.ndarray, r: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (r, r):
        raise InvalidInput(f"generator shape {x.shape}, expected {(r, r)}")
    nrm = np.linalg.norm(x)
    if not nrm < np.inf:                    # inf or NaN entries, or overflow
        raise InvalidInput("curve generator must be finite")
    if np.linalg.norm(x + x.T) > 1e-10 * (1.0 + nrm):
        raise InvalidInput("curve generator is not skew-symmetric")
    return x


def _check_step(h: float) -> float:
    h = float(h)
    if not 0.0 < h < np.inf:
        raise InvalidInput(f"step must be finite and positive, got {h}")
    return h


@dataclass(frozen=True)
class OrbitCurve:
    """Piecewise one-parameter-subgroup curve on an orbit.

    segments: tuple of (X, duration) with X skew; the curve runs
    c(t) = g(t) c(0) g(t)^T where g advances by exp(tX) on each piece.
    arc_exps holds exp(duration X) of each piece (None where the
    duration is 0); all of them are formed in one batched call, on
    construction.
    """

    orbit: OrbitSubmanifold
    segments: tuple
    step: float = DEFAULT_STEP
    arc_exps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.orbit.rep.total_size
        cleaned = []
        for seg in self.segments:
            x, dur = seg
            dur = float(dur)
            if not (np.isfinite(dur) and dur >= 0.0):
                raise InvalidInput(
                    f"segment duration must be finite and >= 0, got {dur}")
            cleaned.append((_check_skew(x, r), dur))
        object.__setattr__(self, "segments", tuple(cleaned))
        _check_step(self.step)
        # exp(dur X) of every nonzero arc in one stack; None for dur = 0
        exps = iter(matrix_exp(np.array(
            [dur * x for x, dur in cleaned if dur > 0.0]).reshape(-1, r, r)))
        object.__setattr__(self, "arc_exps", tuple(
            next(exps) if dur > 0.0 else None for _, dur in cleaned))

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
        return bool(np.linalg.norm(self.endpoint() - self.orbit.point)
                    <= CLOSURE_TOL)


def closed_square_loop(orbit: OrbitSubmanifold, x: np.ndarray, y: np.ndarray,
                       radius: float) -> OrbitCurve:
    """Small closed loop exp(sX) exp(sY) exp(-sX) exp(-sY) plus closure arc.

    The four-arc group commutator misses the identity by O(s^2); a fifth
    arc along -log of the defect closes the loop exactly up to the log
    series truncation.  The result is a null-homotopic loop at the base
    point suitable for holonomy probes.
    """
    r = orbit.rep.total_size
    x = _check_skew(x, r)
    y = _check_skew(y, r)
    s = float(radius)
    if not s > 0.0:
        raise InvalidInput("loop radius must be positive")
    square = OrbitCurve(orbit=orbit,
                        segments=((x, s), (y, s), (-x, s), (-y, s)))
    w = _check_skew(-orthogonal_log(square.group_path_end()), r)
    # the closed curve keeps the four arcs and their exponentials
    curve = copy.copy(square)
    object.__setattr__(curve, "segments", square.segments + ((w, 1.0),))
    object.__setattr__(curve, "arc_exps", square.arc_exps + (matrix_exp(w),))
    g_end = curve.group_path_end()
    if np.linalg.norm(g_end - np.eye(r)) > 1e-9:
        raise InvalidInput("loop closure arc failed to return to identity")
    return curve


@dataclass
class TransportResult:
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
    end_holonomy_defect: float | None = None

    @property
    def xi_end(self) -> np.ndarray:
        return self.xis_end[0]

    def fiber_residual(self) -> float:
        """Max distance of the sampled vectors from the sampled fibers."""
        worst = 0.0
        for g, xis in zip(self.g_samples, self.samples):
            frames = np.einsum("ip,kpq,jq->kij", g,
                               self.curve.orbit.normal_frame, g)
            coeffs = np.einsum("kij,mij->mk", frames, xis)
            recon = np.einsum("mk,kij->mij", coeffs, frames)
            gap = float(np.max(np.linalg.norm(
                (xis - recon).reshape(xis.shape[0], -1), axis=1)))
            worst = max(worst, gap)
        return worst


def _with_end_defect(result: TransportResult) -> TransportResult:
    if result.curve.is_closed():
        n = result.xis_start.shape[0]
        result.end_holonomy_defect = float(np.max(np.linalg.norm(
            (result.xis_end - result.xis_start).reshape(n, -1), axis=1)))
    return result


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
    h = _check_step(step if step is not None else curve.step)
    longest = max((dur for _, dur in curve.segments), default=0.0)
    if longest / h > MAX_STEPS_PER_SEGMENT:
        raise InvalidInput(
            f"step {h:.3g} needs over {MAX_STEPS_PER_SEGMENT} steps on a "
            f"segment; use a step >= {longest / MAX_STEPS_PER_SEGMENT:.3g}")
    xis = orbit.normal_stack(xis)
    targets = np.linalg.norm(xis.reshape(xis.shape[0], -1), axis=1)

    r = orbit.rep.total_size
    g = np.eye(r)
    cur = xis.copy()
    drift = 0.0
    min_ratio = np.inf
    times = [0.0]
    all_samples = [cur.copy()]
    all_g = [g.copy()]
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
        drift += float(np.max(seg_drift))
        min_ratio = min(min_ratio, float(np.min(seg_ratio)))
        # sample 0 is the segment's start state, already recorded; sample
        # i >= 1 is the state after step min(i * stride, nsteps)
        for i in range(1, n_samp):
            k = min(i * stride, nsteps)
            times.append(t0 + dur if k == nsteps else t0 + k * hseg)
            all_samples.append(samples[i])
            all_g.append(g_samples[i])
        t0 += dur
        if min_ratio < MIN_NORM_RATIO:
            raise TransportDiverged(
                f"projection ratio {min_ratio:.3f} fell below "
                f"{MIN_NORM_RATIO}; reduce the step size")
    if min_ratio is np.inf:
        min_ratio = 1.0

    return _with_end_defect(TransportResult(
        curve=curve, xis_start=xis, xis_end=cur, g_end=g,
        times=np.array(times), samples=np.array(all_samples),
        g_samples=np.array(all_g), drift=drift, min_ratio=float(min_ratio),
        step=h))


def exact_transport(curve: OrbitCurve) -> np.ndarray:
    """The K x K orthogonal transport matrix of the curve in frame coefficients.

    T = prod_i exp(-t_i B_{X_i}) with later arcs on the left (see the
    module docstring): a normal vector with coefficients a on the frame
    at c(0) arrives as g (sum_k (T a)_k f_k) g^T, g the group path end.
    """
    gens = frame_action([x for x, _ in curve.segments],
                        curve.orbit.normal_frame)
    durs = np.array([dur for _, dur in curve.segments])
    t = np.eye(curve.orbit.codim)
    # a zero-duration arc contributes exp(0) = I exactly, and I @ t = t
    for e in matrix_exp(-durs[:, None, None] * gens):
        t = e @ t
    return t


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
    if not curve.is_closed():
        raise InvalidInput("frame return requires a closed curve")
    frame = curve.orbit.normal_frame
    g = curve.group_path_end()
    slice_image = np.einsum("kij,mij->km", frame, g @ frame @ g.T)
    return slice_image @ exact_transport(curve)


@dataclass
class ConvergenceAudit:
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
    h = _check_step(step if step is not None else curve.step)
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

    Rebuilds the orbit data honestly at sampled curve points instead of
    pushing the base-point operator forward, so transport error shows up
    as eigenvalue drift.  Returns (times, spectra) with spectra of shape
    (S, dim M).
    """
    orbit = result.curve.orbit
    n_samples = result.samples.shape[0]
    if n_samples <= 12:
        idx = np.arange(n_samples)
    else:
        idx = np.unique(np.linspace(0, n_samples - 1, 12).astype(int))
    times = result.times[idx]
    spectra = []
    for i in idx:
        g = result.g_samples[i]
        point = g @ orbit.point @ g.T
        local = build_orbit(orbit.rep, point, tols=orbit.tols)
        xi = result.samples[i, 0]
        spectra.append(sym_eig(traceless_shape_operator(local, xi)).values)
    return times, np.array(spectra)
