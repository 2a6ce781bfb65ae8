"""Each input rule for matrices has one implementation, in linalg.

linalg._parity_part is the one symmetric/skew test (finite entries and
norm, parity gap within tol (1 + ||a||)); check_symmetric and check_skew
are its two faces.  The routines that take matrices from outside reach
it instead of testing symmetry, skewness or finiteness themselves, and
reject non-finite input with InvalidInput before any arithmetic could
warn (the suite turns a RuntimeWarning into an error).
"""

import numpy as np
import pytest

from normholo import linalg
from normholo.errors import InvalidInput
from normholo.liealg import skew_span
from normholo.linalg import (check_skew, check_symmetric, extend_span,
                             orthonormal_span, sym_eig)
from normholo.transport import OrbitCurve, square_loop_returns


def _with_entry(a, bad, symmetric):
    """a copy of a with its (0, 1) entry bad, mirrored by parity."""
    a = np.array(a, dtype=float)
    a[..., 0, 1], a[..., 1, 0] = bad, bad if symmetric else -bad
    return a


def _calls(v3):
    """name -> function of one bad entry value, for each routine."""
    gen = v3.rep.generators[0]
    r = v3.rep.total_size
    return {
        "skew_span": lambda bad: skew_span([_with_entry(gen, bad, False)]),
        "orthonormal_span": lambda bad: orthonormal_span(
            [np.array([1.0, bad, 0.0])]),
        "extend_span": lambda bad: extend_span(
            orthonormal_span([np.eye(3)[0]]), [np.array([0.0, bad, 1.0])]),
        "sym_eig": lambda bad: sym_eig(_with_entry(np.eye(3), bad, True)),
        "check_symmetric": lambda bad: check_symmetric(
            _with_entry(np.eye(3), bad, True)),
        "check_skew": lambda bad: check_skew(
            _with_entry(np.zeros((2, 3, 3)), bad, False)),
        "validate_carrier": lambda bad: v3.rep.validate_carrier(
            _with_entry(v3.point, bad, True)),
        "OrbitCurve": lambda bad: OrbitCurve(
            orbit=v3, segments=((_with_entry(gen, bad, False), 0.5),)),
        "square_loop_returns": lambda bad: square_loop_returns(
            v3, _with_entry(np.zeros((1, r, r)), bad, False),
            gen[None], radius=0.1),
    }


_ROUTINES = ("skew_span", "orthonormal_span", "extend_span", "sym_eig",
             "check_symmetric", "check_skew", "validate_carrier",
             "OrbitCurve", "square_loop_returns")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", _ROUTINES)
def test_non_finite_matrix_is_rejected(v3, name, bad):
    with pytest.raises(InvalidInput, match="finite"):
        _calls(v3)[name](bad)


def test_parity_checks_keep_valid_input_and_reject_the_other_parity():
    a = np.arange(9.0).reshape(3, 3)
    sym, skew = a + a.T, a - a.T
    assert np.array_equal(check_symmetric(sym), sym)
    assert np.array_equal(check_skew(skew), skew)
    assert np.array_equal(check_skew(np.stack([skew, 2 * skew])),
                          np.stack([skew, 2 * skew]))
    with pytest.raises(InvalidInput, match="not symmetric"):
        check_symmetric(skew)
    with pytest.raises(InvalidInput, match="not skew-symmetric"):
        check_skew(sym)
    with pytest.raises(InvalidInput, match="square"):
        check_skew(np.zeros((2, 3)))
    # a norm that overflows leaves no scale to test parity against
    with pytest.raises(InvalidInput, match="finite"):
        check_symmetric(np.full((3, 3), 1e300))


def test_every_matrix_entry_point_reaches_the_one_parity_test(v3,
                                                              monkeypatch):
    calls = []
    inner = linalg._parity_part

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(linalg, "_parity_part", counted)
    gen = v3.rep.generators[0]
    entries = {
        "skew_span": lambda: skew_span([gen]),
        "OrbitCurve": lambda: OrbitCurve(orbit=v3, segments=((gen, 0.5),)),
        "square_loop_returns": lambda: square_loop_returns(
            v3, gen[None], v3.rep.generators[1][None], radius=0.1),
        "validate_carrier": lambda: v3.rep.validate_carrier(v3.point),
        "sym_eig": lambda: sym_eig(np.eye(3)),
    }
    missed = []
    for name, call in entries.items():
        before = len(calls)
        call()
        if len(calls) == before:
            missed.append(name)
    assert missed == []


@pytest.mark.parametrize("dur", [True, np.nan, -0.5])
def test_bad_curve_duration_is_rejected_on_both_routes(v3, dur):
    # linalg.check_duration is the one rule; each route names its input
    from normholo.report import ScenarioConfig

    raw = {"rep": "sl-so:4", "point": "veronese", "analyses": ["tube"],
           "curve": [[0, dur]]}
    with pytest.raises(InvalidInput, match="curve segment duration must be"):
        ScenarioConfig.from_dict(raw)
    gen = v3.rep.generators[0]
    with pytest.raises(InvalidInput, match="^segment duration must be"):
        OrbitCurve(orbit=v3, segments=((gen, dur),))
