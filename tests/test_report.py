"""Scenario parsing, deterministic rendering, report orchestration."""

import json

import numpy as np
import pytest

from normholo.errors import InvalidInput
from normholo.linalg import DEFAULT_TOLS
from normholo.orbit import build_orbit
from normholo.report import (ANALYSES, KNOWN_ANALYSES, Report, ScenarioConfig,
                             _render, parse_point_spec, parse_rep_spec,
                             run_scenario)


def test_config_roundtrip():
    raw = {"rep": "sl-so:4", "point": "veronese",
           "analyses": ["tube", "transport-audit"], "seed": 7,
           "tolerances": {"eig": 1e-8}, "curve": [[0, 0.3]], "step": 0.002}
    cfg = ScenarioConfig.from_dict(raw)
    assert cfg.rep == "sl-so:4"
    assert cfg.curve == ((0, 0.3),)
    back = cfg.to_dict()
    assert back["curve"] == [[0, 0.3]]
    assert back["step"] == 0.002
    assert "direction" not in back          # defaults are omitted
    assert "n" not in back
    assert ScenarioConfig.from_dict(back).to_dict() == back


def test_config_curve_index_normalized():
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:3", "point": "veronese",
                                    "analyses": ["tube"],
                                    "curve": [[2.0, 1], [0, 0.0]]})
    assert cfg.curve == ((2, 1.0), (0, 0.0))
    assert isinstance(cfg.curve[0][0], int)
    # the arcs the tube runs are parsed once, with the indices
    gens = cfg.representation.generators
    assert [t for _, t in cfg.curve_arcs] == [1.0, 0.0]
    assert np.array_equal(cfg.curve_arcs[0][0], gens[2])
    assert np.array_equal(cfg.curve_arcs[1][0], gens[0])
    unread = ScenarioConfig.from_dict({"rep": "sl-so:3", "point": "veronese",
                                       "analyses": ["orbit"],
                                       "curve": [[2, 1]]})
    assert unread.curve == unread.curve_arcs == ()


def test_config_rejects_unknown_keys():
    with pytest.raises(InvalidInput):
        ScenarioConfig.from_dict({"repp": "sl-so:4"})
    with pytest.raises(InvalidInput):
        ScenarioConfig.from_dict({"tolerances": {"wat": 1.0}})
    with pytest.raises(InvalidInput):
        ScenarioConfig.from_dict({"analyses": ["nope"]})
    with pytest.raises(InvalidInput):
        ScenarioConfig.from_dict({"analyses": ["veronese-facts"] * 2, "n": 3})


def test_tolerance_resolution():
    cfg = ScenarioConfig.from_dict({"tolerances": {"clusterGap": 1e-4}})
    tols = cfg.resolve_tolerances()
    assert tols.cluster_gap == 1e-4
    assert tols.eig == DEFAULT_TOLS.eig


def test_rep_spec_parsing():
    assert parse_rep_spec("sl-so:4").sizes == (4,)
    assert parse_rep_spec("product:sl-so:3,sl-so:2").sizes == (3, 2)
    with pytest.raises(InvalidInput):
        parse_rep_spec("so:4")
    with pytest.raises(InvalidInput):
        parse_rep_spec("sl-so:x")


def test_point_spec_parsing():
    rep = parse_rep_spec("sl-so:3")
    v = parse_point_spec(rep, "veronese")
    assert abs(np.trace(v)) < 1e-12
    d = parse_point_spec(rep, "diag:1,2,6")
    assert np.allclose(np.diag(d), [-2.0, -1.0, 3.0])   # mean-centered
    r1 = parse_point_spec(rep, "random-regular:5")
    assert np.allclose(r1, parse_point_spec(rep, "random-regular:5"))
    with pytest.raises(InvalidInput):
        parse_point_spec(rep, "diag:1,2")
    with pytest.raises(InvalidInput):
        parse_point_spec(rep, "circle")


def test_diag_centering_does_not_overflow():
    rep = parse_rep_spec("sl-so:3")
    huge = build_orbit(rep, parse_point_spec(rep,
                                             "diag:1.5e308,1.5e308,-1e308"))
    plain = build_orbit(rep, parse_point_spec(rep, "diag:1.5,1.5,-1"))
    assert np.allclose(huge.point, plain.point, rtol=0.0, atol=1e-15)
    assert (huge.dim, huge.codim) == (plain.dim, plain.codim) == (2, 3)
    with pytest.raises(InvalidInput, match="1.7e308"):
        parse_point_spec(rep, "diag:1.7e308,1.7e308,-1.7e308")


def test_product_point_spec():
    rep = parse_rep_spec("product:sl-so:3,sl-so:3")
    p = parse_point_spec(rep, "veronese;veronese")
    assert p.shape == (6, 6)
    assert np.allclose(p[:3, 3:], 0.0)
    with pytest.raises(InvalidInput):
        parse_point_spec(rep, "veronese")


def test_render_formatting():
    out = _render({"b": 1.5, "a": True, "c": None, "d": [1, 2.0]})
    assert out == '{"a":true,"b":1.5,"c":null,"d":[1,2.0]}'
    assert _render(0.1) == "0.10000000000000001"
    assert _render(-1.0) == "-1.0"
    assert _render(-0.0) == "-0.0"
    assert _render(1e20) == "1e+20"
    assert _render(3) == "3"
    assert isinstance(json.loads(_render(-1.0)), float)
    assert _render(float("nan")) == '"nan"'
    assert _render("a\"b\nc") == '"a\\"b\\nc"'


def test_render_coerces_numpy():
    out = _render({"x": np.float64(0.5), "n": np.int64(3),
                   "b": np.bool_(True), "v": np.arange(2.0)})
    assert out == '{"b":true,"n":3,"v":[0.0,1.0],"x":0.5}'
    # a 0-d array renders as its scalar
    assert _render(np.array(2.0)) == "2.0"


def _reference_coerce(value):
    """The two-pass renderer's first pass, kept as the oracle."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_reference_coerce(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _reference_coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_coerce(v) for v in value]
    return value


def _reference_render(value) -> str:
    """Coerce the whole subtree at every node, then render it."""
    value = _reference_coerce(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not np.isfinite(value):
            return '"%s"' % repr(value)
        text = "%.17g" % value
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r")
        out = out.replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(value, list):
        return "[" + ",".join(_reference_render(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f'{_reference_render(str(k))}:'
                              f'{_reference_render(v)}'
                              for k, v in items) + "}"
    raise InvalidInput(f"cannot render {type(value).__name__} into a report")


@pytest.mark.parametrize("value", [
    {"a": {"b": [np.float64(0.1), (np.int64(2), np.arange(3.0))],
           "c": (np.bool_(False), [np.float32(0.1), {"d": np.ones(2)}])}},
    np.arange(6.0).reshape(2, 3) / 7.0,
    [np.bool_(True), np.int64(-5), np.float32(1.5), np.float32(0.1)],
    [float("nan"), float("inf"), -float("inf"), np.float64(np.nan),
     np.array([np.inf, -np.inf, np.nan])],
    [-1.0, 2.0, 1e20, -0.0, np.float64(3.0), np.array([4.0, -5.0])],
    {1: "one", "2": np.int64(2), 3.5: (1, 2)},
    ("tuple", ("nested", np.array([1.0])), np.array([[True, False]])),
    {"s": "a\"b\nc\t\\", "n": None, "e": [], "m": {}},
])
def test_render_matches_two_pass_renderer(value):
    assert _render(value) == _reference_render(value)


@pytest.mark.parametrize("raw", [
    {"rep": "sl-so:4", "point": "random-regular:1",
     "analyses": ["orbit", "holonomy", "coxeter"], "seed": 1},
    {"rep": "product:sl-so:3,sl-so:3", "point": "veronese;veronese",
     "analyses": ["orbit", "holonomy", "bound"], "seed": 1},
    {"rep": "sl-so:3", "point": "veronese",
     "analyses": ["loop-probe", "transport-audit"], "seed": 1},
], ids=["sweep-small", "holonomy-large", "transport-loops"])
def test_document_text_matches_two_pass_renderer(raw):
    report = run_scenario(ScenarioConfig.from_dict(raw))
    doc = report.body()
    doc["timings"] = report.timings
    assert report.document_text() == _reference_render(doc)


def test_render_rejects_unknown_types():
    with pytest.raises(InvalidInput):
        _render({"x": object()})


def test_empty_scenario_passes():
    report = run_scenario(ScenarioConfig())
    assert report.passed
    assert report.exit_code == 0
    assert report.analyses == {}


def test_orbit_scenario_body_is_deterministic():
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["orbit"], "seed": 3})
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.passed and r1.exit_code == 0
    assert r1.body_text() == r2.body_text()
    assert r1.analyses["orbit"]["dim"] == 3
    assert r1.analyses["orbit"]["homothecy"]["isHomothecy"]


def test_transport_scenario_body_is_deterministic():
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["loop-probe",
                                                 "transport-audit"],
                                    "seed": 5, "step": 0.002})
    bodies = [run_scenario(cfg).body_text() for _ in range(2)]
    roundtrip = ScenarioConfig.from_dict(cfg.to_dict())
    bodies.append(run_scenario(roundtrip).body_text())
    assert bodies[0] == bodies[1] == bodies[2]
    assert '"transport-audit"' in bodies[0] and '"loop-probe"' in bodies[0]


def test_config_integers_normalized():
    # non-integral values are config errors; see test_cli
    cfg = ScenarioConfig.from_dict({"seed": 12, "n": 3,
                                    "direction": "seed:4", "rep": "sl-so:3",
                                    "point": "veronese",
                                    "analyses": ["veronese-facts", "tube"]})
    assert (cfg.n, cfg.direction_seed) == (3, 4)
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    cfg = ScenarioConfig.from_dict({"seed": "7", "n": 4.0,
                                    "analyses": ["veronese-facts"]})
    assert (cfg.seed, cfg.n) == (7, 4) and isinstance(cfg.n, int)
    with pytest.raises(InvalidInput):
        ScenarioConfig.from_dict({"seed": "1.0"})


def test_failing_analysis_does_not_cancel_siblings():
    # veronese orbits are not isoparametric, so coxeter hard-errors
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["orbit", "coxeter"]})
    report = run_scenario(cfg)
    assert report.analyses["orbit"]["ok"]
    assert not report.analyses["coxeter"]["ok"]
    error = report.analyses["coxeter"]["error"]
    assert error["type"] == "NotIsoparametric"
    assert error["message"].startswith("normal bundle is not flat")
    assert not report.passed
    assert report.exit_code == 1
    assert report.body()["summary"]["failures"] == ["coxeter"]


def test_bad_rep_is_config_error():
    # every spec parses on construction: a rep that does not parse is a
    # config error, not a failed analysis
    for rep in ("su:3", "sl-so:1"):
        with pytest.raises(InvalidInput):
            ScenarioConfig.from_dict({"rep": rep, "point": "veronese",
                                      "analyses": ["orbit"]})


def test_direct_config_parses_specs():
    with pytest.raises(InvalidInput):
        ScenarioConfig(rep="su:3", point="veronese", analyses=("orbit",))
    with pytest.raises(InvalidInput):
        ScenarioConfig(rep="sl-so:4", point="veronese", analyses=("tube",),
                       curve=((6, 0.1),))
    with pytest.raises(InvalidInput):
        ScenarioConfig(analyses=("veronese-facts",))
    cfg = ScenarioConfig(rep="sl-so:4", point="veronese", analyses=("tube",),
                         direction="seed:3", curve=[[1.0, 0.2]])
    assert cfg.representation.group_dim == 6
    assert cfg.direction_seed == 3
    assert cfg.curve == ((1, 0.2),)
    assert not cfg.base_point.flags.writeable
    # parsed fields stay out of equality and the round trip
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    # every given spec is parsed, and only the keys a named analysis
    # reads are kept
    with pytest.raises(InvalidInput):
        ScenarioConfig(rep="su:3", analyses=("veronese-facts",), n=2)
    facts = ScenarioConfig(rep="sl-so:3", point="veronese",
                           analyses=("veronese-facts",), n=2)
    assert facts.representation is None and facts.base_point is None
    assert (facts.rep, facts.point) == ("", "")


@pytest.mark.parametrize("key,value,message", [
    ("tolerances", [1], "tolerances must be an object"),
    ("curve", 5, "curve must be a list"),
    ("analyses", "orbit", "analyses must be a list"),
    ("rep", 4, "rep must be a string"),
    ("point", ["veronese"], "point must be a string"),
    ("direction", 2, "direction must be a string"),
    ("out", 5, "out must be a string"),
])
def test_wrong_field_type_names_the_field(key, value, message):
    with pytest.raises(InvalidInput, match=message):
        ScenarioConfig.from_dict({key: value})


def test_removed_spec_aliases():
    with pytest.raises(InvalidInput, match="cluster_gap"):
        ScenarioConfig.from_dict({"tolerances": {"cluster_gap": 1e-4}})
    rep = parse_rep_spec("product:sl-so:3,sl-so:3")
    with pytest.raises(InvalidInput, match="1 factors"):
        parse_point_spec(rep, "veronese,veronese")


def test_document_contains_timings():
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["orbit"]})
    report = run_scenario(cfg)
    assert '"timings"' in report.document_text()
    assert '"timings"' not in report.body_text()


def test_holonomy_and_bound_analyses():
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["holonomy", "bound"]})
    report = run_scenario(cfg)
    assert report.passed
    h = report.analyses["holonomy"]
    assert h["algebraDim"] == 3
    assert h["rank"] == 1
    assert h["conjectureClass"] == "s-orbit-compatible"
    b = report.analyses["bound"]
    assert b["bound"] == 1
    assert b["attained"]
    assert b["certificate"]["pairs"] == 1


def test_holonomy_and_bound_share_one_pass(monkeypatch):
    import normholo.holonomy as holonomy
    from normholo.srep import CartanCurvature

    counts = {"decomposition": 0, "commutators": 0, "entries": 0,
              "slice": 0}
    decompose = holonomy.invariant_decomposition
    slice_distance = holonomy.slice_holonomy_distance
    commutators = CartanCurvature.commutators
    entries = CartanCurvature.entries

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(holonomy, "invariant_decomposition",
                        counted("decomposition", decompose))
    monkeypatch.setattr(holonomy, "slice_holonomy_distance",
                        counted("slice", slice_distance))
    monkeypatch.setattr(CartanCurvature, "commutators",
                        staticmethod(counted("commutators", commutators)))
    monkeypatch.setattr(CartanCurvature, "entries",
                        staticmethod(counted("entries", entries)))
    cfg = ScenarioConfig.from_dict({"rep": "sl-so:4", "point": "veronese",
                                    "analyses": ["orbit", "holonomy",
                                                 "bound"]})
    report = run_scenario(cfg)
    assert report.passed
    # one curvature factor and one slice distance per orbit, and no K^4
    # tensor on this path
    assert counts == {"decomposition": 1, "commutators": 1, "entries": 0,
                      "slice": 1}


class _Recorder:
    """Forwards attribute reads to an object and records their names."""

    def __init__(self, obj):
        self.obj, self.names = obj, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.obj, name)


# the config attribute a handler reads for a key, where the two differ
_READ_AS = {"direction_seed": "direction", "curve_arcs": "curve",
            "resolve_tolerances": "tolerances"}


@pytest.mark.parametrize("name", KNOWN_ANALYSES)
def test_analysis_reads_what_its_record_declares(name):
    # run the handler on a config that gives every key; the orbit is built
    # from rep, point and tolerances, so a handler that reads it reads them
    config = ScenarioConfig.from_dict({
        "rep": "sl-so:3", "point": "diag:1,0,-1", "analyses": [name],
        "seed": 1, "n": 2, "direction": "seed:1", "curve": [[0, 0.1]],
        "step": 0.05})
    M = build_orbit(parse_rep_spec("sl-so:3"),
                    parse_point_spec(parse_rep_spec("sl-so:3"), "diag:1,0,-1"))
    config_reads, orbit_reads = _Recorder(config), _Recorder(M)
    assert ANALYSES[name].run(orbit_reads, config_reads)["ok"] is True
    reads = {_READ_AS.get(attr, attr) for attr in config_reads.names}
    if orbit_reads.names:
        reads |= {"rep", "point", "tolerances"}
    # seed is parsed on every route; an analysis may leave it unread
    assert reads - {"seed"} == ANALYSES[name].reads | {"tolerances"}
