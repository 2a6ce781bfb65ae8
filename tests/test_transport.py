"""Normal parallel transport along orbit curves."""

import numpy as np
import pytest

from normholo.errors import InvalidInput
from normholo.kernels import matrix_exp
from normholo.orbit import shape_operator
from normholo.transport import (OrbitCurve, closed_square_loop,
                                exact_transport, exact_transport_vector,
                                parallel_transport_normal,
                                parallel_transport_stack,
                                traceless_spectra_along,
                                transport_convergence_audit,
                                transport_frame_return)


def _open_curve(orbit, duration=0.5):
    c = np.zeros(orbit.dim)
    c[0], c[1], c[2] = 1.0, 0.4, -0.2
    c /= np.linalg.norm(c)
    return OrbitCurve.from_tangent_coords(orbit, [(c, duration)], step=1e-3)


def _commutator_loop(orbit, radius=0.2):
    x, y = orbit.m_generators[:2]
    return closed_square_loop(orbit, x, y, radius=radius)


def test_curve_validation(v3):
    with pytest.raises(InvalidInput):
        OrbitCurve.from_tangent_coords(v3, [(np.ones(2), 1.0)])
    with pytest.raises(InvalidInput):
        OrbitCurve.from_tangent_coords(v3, [(np.ones(3), -1.0)])
    with pytest.raises(InvalidInput):
        OrbitCurve.from_tangent_coords(v3, [(np.ones(3), 1.0)], step=0.0)
    with pytest.raises(InvalidInput):
        OrbitCurve(orbit=v3, segments=((np.eye(4), 1.0),))


@pytest.mark.parametrize("dur", [np.nan, np.inf])
def test_curve_rejects_non_finite_duration(v3, dur):
    with pytest.raises(InvalidInput, match="finite"):
        OrbitCurve.from_tangent_coords(v3, [(np.ones(3), dur)])


def test_tiny_step_rejected_before_stepping(v3, monkeypatch):
    import normholo.transport as transport

    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(transport, "transport_segment", no_step)
    curve = _open_curve(v3)
    with pytest.raises(InvalidInput, match="steps"):
        parallel_transport_stack(curve, v3.normal_frame[:1], step=1e-300)


def test_curve_endpoint_stays_on_sphere(v3):
    curve = _open_curve(v3)
    assert curve.total_time == 0.5
    end = curve.endpoint()
    assert abs(np.linalg.norm(end) - 1.0) < 1e-12
    assert not curve.is_closed()
    g = curve.group_path_end()
    assert np.allclose(g.T @ g, np.eye(4), atol=1e-12)


def test_square_loop_closes(v3):
    loop = _commutator_loop(v3)
    assert loop.is_closed()
    with pytest.raises(InvalidInput):
        closed_square_loop(v3, loop.segments[0][0], loop.segments[1][0],
                           radius=0.0)


def test_transport_preserves_norms_and_fiber(v3):
    curve = _open_curve(v3)
    res = parallel_transport_stack(curve, v3.normal_frame[:3], step=1e-3)
    start = np.linalg.norm(res.xis_start.reshape(3, -1), axis=1)
    end = np.linalg.norm(res.xis_end.reshape(3, -1), axis=1)
    assert np.allclose(start, end, atol=1e-13)
    assert res.fiber_residual() < 1e-8
    assert res.drift < 1e-8
    assert res.min_ratio > 0.999
    assert res.end_holonomy_defect is None


def test_transport_preserves_gram(v3):
    curve = _open_curve(v3)
    res = parallel_transport_stack(curve, v3.normal_frame[:3], step=1e-3)
    g0 = np.einsum("aij,bij->ab", res.xis_start, res.xis_start)
    g1 = np.einsum("aij,bij->ab", res.xis_end, res.xis_end)
    assert float(np.max(np.abs(g1 - g0))) < 1e-8


def test_transport_rejects_wrong_fiber(v3):
    curve = _open_curve(v3)
    with pytest.raises(InvalidInput):
        parallel_transport_normal(curve, v3.tangent_frame[0])
    with pytest.raises(InvalidInput):
        parallel_transport_normal(curve, v3.nbar_frame[0], step=-1.0)


def test_closed_transport_reports_defect(v3):
    loop = _commutator_loop(v3)
    res = parallel_transport_normal(loop, v3.nbar_frame[0])
    assert res.end_holonomy_defect is not None
    # transported vector returns to the original fiber
    coeffs = v3.normal_coords(res.xi_end)
    recon = v3.normal_vector(coeffs)
    assert np.linalg.norm(res.xi_end - recon) < 1e-8


def test_frame_return_orthogonal_and_nontrivial(v3):
    ret = transport_frame_return(_commutator_loop(v3))
    k = v3.codim
    assert ret.shape == (k, k)
    assert np.linalg.norm(ret.T @ ret - np.eye(k)) < 1e-8
    # curved normal bundle: the loop genuinely rotates the frame
    assert np.linalg.norm(ret - np.eye(k)) > 1e-3


def test_frame_return_requires_closed_curve(v3):
    with pytest.raises(InvalidInput):
        transport_frame_return(_open_curve(v3))


def test_flat_orbit_has_trivial_loop_return(a2_orbit):
    ret = transport_frame_return(_commutator_loop(a2_orbit))
    assert np.linalg.norm(ret - np.eye(a2_orbit.codim)) < 1e-8


def test_convergence_audit(v3):
    curve = _open_curve(v3)
    audit = transport_convergence_audit(curve, v3.nbar_frame[0], step=1e-2)
    assert audit.drift_halving_ok
    assert audit.order_estimate > 2.0
    assert audit.steps[0] == 2 * audit.steps[1] == 4 * audit.steps[2]


def test_spectra_constant_along_transport(v3):
    curve = _open_curve(v3)
    res = parallel_transport_normal(curve, v3.nbar_frame[0], step=1e-3)
    times, spectra = traceless_spectra_along(res)
    assert times[0] == 0.0
    assert abs(times[-1] - curve.total_time) < 1e-12
    assert float(np.max(np.abs(spectra - spectra[0]))) < 1e-5


def _two_segment_arc(orbit):
    c = np.zeros(orbit.dim)
    c[0], c[1] = 1.0, 0.4
    d = np.zeros(orbit.dim)
    d[-1] = 1.0
    return OrbitCurve.from_tangent_coords(
        orbit, [(c / np.linalg.norm(c), 0.3), (d, 0.2)], step=1e-3)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("stack", ["normal", "nbar"])
@pytest.mark.parametrize("closed", [False, True])
def test_stepper_matches_exact_transport(veronese, n, stack, closed):
    m = veronese(n)
    curve = _commutator_loop(m) if closed else _two_segment_arc(m)
    # the whole normal frame, or the sphere-normal part of it
    frame = m.normal_frame if stack == "normal" else m.nbar_frame
    stepped = parallel_transport_stack(curve, frame, step=1e-3)
    exact = np.array([exact_transport_vector(curve, xi) for xi in frame])
    assert float(np.max(np.abs(stepped.xis_end - exact))) <= 1e-9
    assert np.allclose(stepped.g_end, curve.group_path_end(), atol=1e-12)


def test_frame_return_on_stabilizer_arc_is_identity(v3):
    # exp(tX) with X in the isotropy algebra fixes the base point, so the
    # curve is closed and the moving frame is the slice image of the base
    # frame; the frame return must undo it, which T alone does not
    _, isotropy = v3.rep.isotropy_algebra(v3.point)
    x = isotropy[0] / np.linalg.norm(isotropy[0])
    curve = OrbitCurve(orbit=v3, segments=((x, 1.3),))
    assert curve.is_closed()
    assert np.linalg.norm(curve.group_path_end() - np.eye(4)) > 1.0
    k = v3.codim
    assert np.linalg.norm(exact_transport(curve) - np.eye(k)) > 1.0
    assert np.linalg.norm(transport_frame_return(curve) - np.eye(k)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_exact_frame_return_is_orthogonal(veronese, n):
    ret = transport_frame_return(_commutator_loop(veronese(n)))
    k = ret.shape[0]
    assert float(np.max(np.abs(ret.T @ ret - np.eye(k)))) <= 1e-13


def test_sample_times_match_samples(v3):
    x = v3.rep.generators[1]
    curve = OrbitCurve(orbit=v3, segments=((x, 0.1), (x, 0.05)))
    res = parallel_transport_normal(curve, v3.nbar_frame[0],
                                    samples_per_segment=4)
    assert np.all(np.diff(res.times) > 0.0)
    assert res.times[0] == 0.0 and res.times[-1] == curve.total_time
    for t, g in zip(res.times, res.g_samples):
        assert np.linalg.norm(g - matrix_exp(t * x)) <= 1e-12
    assert np.allclose(res.samples[-1], res.xis_end, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fine_step_drift_free_of_frame_roundoff(veronese, n):
    # at h = 5e-4 the stepper's own norm loss is a few 1e-12; conjugating
    # the frames by the accumulated g would add round-off near 1e-10
    m = veronese(n)
    rng = np.random.default_rng(n + 1)
    c = rng.standard_normal(m.dim)
    curve = OrbitCurve.from_tangent_coords(m, [(c / np.linalg.norm(c), 1.0)])
    res = parallel_transport_normal(curve, m.nbar_frame[0], step=5e-4)
    assert res.drift <= 1e-11


def _count_exponentials(monkeypatch):
    """Record the shape of every matrix_exp argument the transport module
    passes."""
    import normholo.transport as transport

    calls = []
    real = transport.matrix_exp

    def counted(x):
        calls.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(transport, "matrix_exp", counted)
    return calls


def test_curve_exponentials_formed_once(v3, monkeypatch):
    arcs = _two_segment_arc(v3).segments + ((v3.rep.generators[0], 0.0),)
    calls = _count_exponentials(monkeypatch)
    curve = OrbitCurve(orbit=v3, segments=arcs)
    assert calls == [(2, 4, 4)]             # one stack of the nonzero arcs
    assert curve.arc_exps[2] is None
    for (x, dur), e in zip(arcs[:2], curve.arc_exps):
        assert np.array_equal(e, matrix_exp(dur * x))
    calls.clear()
    curve.group_path_end()
    curve.endpoint()
    curve.is_closed()
    assert calls == []
    t = exact_transport(curve)
    k = v3.codim
    assert calls == [(3, k, k)]             # the coefficient factors, once
    assert np.allclose(t.T @ t, np.eye(k), atol=1e-13)
    # the zero arc's factor is exactly the identity
    calls.clear()
    assert np.array_equal(t, exact_transport(
        OrbitCurve(orbit=v3, segments=arcs[:2])))


def test_closed_loop_reuses_arc_exponentials(v3, monkeypatch):
    calls = _count_exponentials(monkeypatch)
    loop = _commutator_loop(v3)
    assert calls == [(4, 4, 4), (4, 4)]     # four arcs, then the closure arc
    fresh = OrbitCurve(orbit=v3, segments=loop.segments)
    assert all(np.array_equal(a, b)
               for a, b in zip(loop.arc_exps, fresh.arc_exps))
    assert loop.is_closed()


def test_curve_without_arcs(v3):
    curve = OrbitCurve(orbit=v3, segments=((v3.rep.generators[0], 0.0),))
    assert curve.arc_exps == (None,)
    assert np.array_equal(exact_transport(curve), np.eye(v3.codim))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_curve_rejects_non_finite_generator(v3, bad):
    x = v3.rep.generators[0].copy()
    x[0, 1], x[1, 0] = bad, -bad
    with pytest.raises(InvalidInput, match="finite"):
        OrbitCurve(orbit=v3, segments=((x, 1.0),))
    with pytest.raises(InvalidInput, match="finite"):
        closed_square_loop(v3, x, v3.rep.generators[1], radius=0.1)


@pytest.mark.parametrize("step", [np.inf, np.nan, -1e-3])
def test_non_finite_step_rejected(v3, step):
    curve = _open_curve(v3)
    with pytest.raises(InvalidInput, match="finite and positive"):
        parallel_transport_stack(curve, v3.nbar_frame[:1], step=step)
    with pytest.raises(InvalidInput, match="finite and positive"):
        transport_convergence_audit(curve, v3.nbar_frame[0], step=step)
    with pytest.raises(InvalidInput, match="finite and positive"):
        OrbitCurve(orbit=v3, segments=curve.segments, step=step)


def test_single_sample_per_long_segment(v3):
    # one sample per segment over more steps than one block: the start
    # and the end state only
    curve = _open_curve(v3, duration=0.3)
    res = parallel_transport_normal(curve, v3.nbar_frame[0], step=1e-3,
                                    samples_per_segment=1)
    assert list(res.times) == [0.0, 0.3]
    assert res.samples.shape[0] == res.g_samples.shape[0] == 2
    assert np.array_equal(res.samples[-1], res.xis_end)
    assert np.array_equal(res.g_samples[-1], res.g_end)
    exact = exact_transport_vector(curve, v3.nbar_frame[0])
    assert float(np.max(np.abs(res.xi_end - exact))) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normal_vector_needs_finite_entries(v3, bad):
    xi = v3.nbar_frame[0].copy()
    xi[0, 1] = xi[1, 0] = bad
    curve = _open_curve(v3)
    for call in (lambda: parallel_transport_normal(curve, xi),
                 lambda: exact_transport_vector(curve, xi),
                 lambda: shape_operator(v3, xi)):
        with pytest.raises(InvalidInput, match="finite entries"):
            call()
