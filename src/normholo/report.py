"""Scenario configuration, analysis orchestration, JSON reports.

The report body is rendered by a deterministic serializer: keys sorted,
floats at 17 significant digits, no whitespace variation.  Timings sit
outside the body so repeated runs with one seed produce byte-identical
bodies.

One record per analysis (``ANALYSES``) says what it reads and runs.
This module imports only the layers every command runs (the numeric
core, srep, orbit and holonomy); a parsed ScenarioConfig imports the
layer of each analysis it names, before any scenario runs.
"""
from __future__ import annotations

import importlib
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import InvalidInput, NormholoError, NotApplicable
from .holonomy import (SLICE_TOL, CommutingCertificate, analyze,
                       commuting_certificate, loop_holonomy_probe)
from .linalg import (DEFAULT_TOLS, Tolerances, check_duration, check_positive,
                     rank_reveal)
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    isotropy_defect, mean_curvature, orbit_dims)
from .srep import SymmetricPairRep, random_regular_point

SCHEMA_VERSION = 4

_TOL_KEYS = {"sym": "sym", "eig": "eig", "rank": "rank",
             "clusterGap": "cluster_gap"}


# the default of each key an analysis reads: a key that no named
# analysis reads is reset to it
_DEFAULTS = {"rep": "", "point": "", "n": None, "direction": "canonical",
             "curve": (), "step": None}


class ScenarioConfig:
    """Scenario description; round-trips through to_dict.

    Construction, whatever the route (keywords, from_dict, CLI flags),
    parses every key that is given (seed, n, step and each tolerance as
    numbers, the point against the rep, the curve against the rep's
    group dimension, the n against the fact suite's range where it is
    read) and raises InvalidInput on one that does not parse.  A
    key that no named analysis reads is then reset to its default, so
    it is neither kept nor rendered.  The parsed specs are kept as
    representation and base_point (read-only), curve_arcs (the curve's
    (X, t) arcs, X the indexed generator of representation) and
    direction_seed (None for the canonical direction); they stay out of
    equality.
    """

    __slots__ = ("rep", "point", "analyses", "seed", "tolerances", "n",
                 "direction", "curve", "step", "out", "representation",
                 "base_point", "curve_arcs", "direction_seed")

    def __init__(self, rep: str | None = "", point: str | None = "",
                 analyses: tuple = (), seed: int = 0,
                 tolerances: dict | None = None, n: int | None = None,
                 direction: str | None = "canonical", curve: tuple = (),
                 step: float | None = None, out: str | None = None):
        tols = _typed("tolerances", {} if tolerances is None else tolerances,
                      dict, "an object")
        bad = set(tols) - set(_TOL_KEYS)
        if bad:
            raise InvalidInput(f"unknown tolerance keys: {sorted(bad)}")
        self.tolerances = {key: check_positive(f"tolerance '{key}'", value)
                           for key, value in tols.items()}
        # a string key given as None (JSON null) takes its default
        rep = "" if rep is None else _typed("rep", rep)
        point = "" if point is None else _typed("point", point)
        direction = ("canonical" if direction is None
                     else _typed("direction", direction))
        out = None if out is None else _typed("out", out)
        seed = _seed("seed", seed)
        n = None if n is None else _integer("n", n)
        step = None if step is None else check_positive("step", step)
        analyses = tuple(_typed("analyses", analyses, (list, tuple), "a list"))
        for a in analyses:
            if not isinstance(a, str) or a not in ANALYSES:
                raise InvalidInput(f"unknown analysis '{a}'; "
                                   f"choose from {KNOWN_ANALYSES}")
        if len(set(analyses)) < len(analyses):
            raise InvalidInput(f"analyses {list(analyses)} name one "
                               "analysis more than once")
        reads = set().union(*(ANALYSES[a].reads for a in analyses))
        rep_parsed = base_point = direction_seed = None
        if rep or point or "rep" in reads:
            rep_parsed = parse_rep_spec(rep)    # a point needs its rep
        if point or "point" in reads:
            base_point = parse_point_spec(rep_parsed, point)
            base_point.flags.writeable = False
        if direction != "canonical":
            if not direction.startswith("seed:"):
                raise InvalidInput(f"direction '{direction}' not "
                                   "recognized; expected canonical or "
                                   "seed:<k>")
            direction_seed = _seed(f"seed in direction '{direction}'",
                                   direction[len("seed:"):])
        curve = tuple(_curve_segment(seg, rep_parsed and rep_parsed.group_dim)
                      for seg in _typed("curve", curve, (list, tuple),
                                        "a list"))
        self.rep, self.point, self.n, self.direction = rep, point, n, direction
        self.curve, self.step = curve, step
        for key in _READ_KEYS - reads:
            setattr(self, key, _DEFAULTS[key])
        self.analyses, self.seed, self.out = analyses, seed, out
        self.representation = rep_parsed if "rep" in reads else None
        self.base_point = base_point if "rep" in reads else None
        self.curve_arcs = tuple((rep_parsed.generators[gi], t)
                                for gi, t in self.curve)
        self.direction_seed = direction_seed if "direction" in reads else None
        if "n" in reads:
            from .veronese import FACT_NS
            if self.n not in FACT_NS:
                raise InvalidInput(f"n must be in {FACT_NS[0]}.."
                                   f"{FACT_NS[-1]}, got {self.n}")
        for name in analyses:
            if ANALYSES[name].layer:
                importlib.import_module(ANALYSES[name].layer, __package__)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ScenarioConfig)
                and (self.to_dict(), self.out) == (other.to_dict(), other.out))

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """The scenario of a config object; the constructor parses it."""
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        d = {"rep": self.rep, "point": self.point,
             "analyses": list(self.analyses), "seed": self.seed,
             "tolerances": dict(self.tolerances)}
        for key in ("n", "direction", "step"):     # where not the default
            if getattr(self, key) != _DEFAULTS[key]:
                d[key] = getattr(self, key)
        if self.curve:
            d["curve"] = [list(seg) for seg in self.curve]
        return d

    def resolve_tolerances(self) -> Tolerances:
        return DEFAULT_TOLS._replace(**{_TOL_KEYS[k]: v for k, v
                                        in self.tolerances.items()})


def _typed(name: str, value, types=str, what: str = "a string"):
    """value when it is one of types, else InvalidInput naming the field."""
    if not isinstance(value, types):
        raise InvalidInput(f"{name} must be {what}, got "
                           f"{type(value).__name__}")
    return value


def _integer(name: str, value) -> int:
    """value as an int: an int (not a bool), an integral float or an
    integer string; anything else is InvalidInput."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def _seed(name: str, value) -> int:
    """value as an RNG seed: an integer >= 0, else InvalidInput."""
    seed = _integer(name, value)
    if seed < 0:
        raise InvalidInput(f"{name} must be an integer >= 0, got {value!r}")
    return seed


def _curve_segment(seg, group_dim: int | None) -> tuple:
    """A [generatorIndex, t] pair: integral index >= 0 and below the
    group dimension (when known), finite t >= 0."""
    try:
        gi, dur = seg
        index = float(gi)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput("curve segments are [generatorIndex, t] pairs, "
                           f"got {seg!r}") from exc
    if isinstance(gi, bool) or not (np.isfinite(index) and index >= 0
                                    and index == int(index)):
        raise InvalidInput(f"curve generator index must be an integer >= 0, "
                           f"got {gi!r}")
    if group_dim is not None and index >= group_dim:
        raise InvalidInput(f"curve generator index {int(index)} out of range "
                           f"for group dimension {group_dim}")
    return int(index), check_duration("curve segment duration", dur)


def parse_rep_spec(spec: str) -> SymmetricPairRep:
    """'sl-so:<r>' or 'product:sl-so:<r1>,sl-so:<r2>,...'."""
    spec = spec.strip()
    sizes = []
    for part in (spec[len("product:"):].split(",")
                 if spec.startswith("product:") else [spec]):
        part = part.strip()
        if not part.startswith("sl-so:"):
            raise InvalidInput(f"representation spec '{part}' not "
                               "recognized; expected sl-so:<r>")
        try:
            sizes.append(int(part[len("sl-so:"):]))
        except ValueError as exc:
            raise InvalidInput(f"bad block size in '{part}'") from exc
    return SymmetricPairRep.product(sizes)


def parse_point_spec(rep: SymmetricPairRep, spec: str) -> np.ndarray:
    """Base point from 'veronese', 'diag:...', or 'random-regular:<seed>';
    products take one factor spec per block, separated by ';'."""
    parts = [p.strip() for p in spec.split(";")]
    if len(parts) != len(rep.sizes):
        raise InvalidInput(f"point spec has {len(parts)} factors, "
                           f"representation has {len(rep.sizes)}")
    out = np.zeros((rep.total_size, rep.total_size))
    for sl, r, part in zip(rep.block_slices, rep.sizes, parts):
        out[sl, sl] = _factor_point(r, part)
    return out


def _factor_point(r: int, spec: str) -> np.ndarray:
    if spec == "veronese":
        e1 = np.zeros(r)
        e1[0] = 1.0
        return np.outer(e1, e1) - np.eye(r) / r
    if spec.startswith("diag:"):
        try:
            d = np.array([float(x) for x in spec[len("diag:"):].split(",")])
        except ValueError as exc:
            raise InvalidInput(f"bad diag entries in '{spec}'") from exc
        if not np.all(np.isfinite(d)):
            raise InvalidInput(f"diag entries must be finite, got '{spec}'")
        if len(d) != r:
            raise InvalidInput(f"diag point needs {r} entries, "
                               f"got {len(d)}")
        # the mean of d / s, s a power of two near max |d|, cannot
        # overflow, and scaling by s keeps the bits of d.mean()
        s = np.ldexp(1.0, np.frexp(np.abs(d).max())[1] - 1)
        with np.errstate(over="ignore"):
            centered = d - s * np.mean(d / s)
        if not np.all(np.isfinite(centered)):
            raise InvalidInput(f"centered diag entries overflow in '{spec}'")
        return np.diag(centered)
    if spec.startswith("random-regular:"):
        seed = _seed(f"seed in '{spec}'", spec[len("random-regular:"):])
        return random_regular_point(SymmetricPairRep.for_size(r), seed)
    raise InvalidInput(f"point spec '{spec}' not recognized; expected "
                       "veronese, diag:<values>, or random-regular:<seed>")


# ---------------------------------------------------------------------------
# deterministic rendering: one recursive pass over the tree, numpy leaves
# converted where they are met


def _render(value) -> str:
    """JSON text with sorted keys and %.17g floats.

    One pass over the tree: a numpy leaf is converted at the node that
    renders it (an array through tolist(), a numpy scalar through item()),
    and a tuple renders as a list.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return '"%s"' % repr(value)
        text = "%.17g" % value
        # keep integral floats floats: -1.0 would read back as the int -1
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r")
        out = out.replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        return "{" + ",".join(f'{_render(k)}:{_render(v)}'
                              for k, v in items) + "}"
    raise InvalidInput(f"cannot render {type(value).__name__} into a report")


class Report(NamedTuple):
    """Analysis results split into a deterministic body plus timings."""

    config: ScenarioConfig
    analyses: dict
    passed: bool
    timings: dict

    def body(self) -> dict:
        failures = sorted(name for name, res in self.analyses.items()
                          if not res.get("ok", False))
        return {"schemaVersion": SCHEMA_VERSION,
                "toolVersion": __version__,
                "config": self.config.to_dict(),
                "analyses": self.analyses,
                "summary": {"pass": self.passed, "failures": failures}}

    def body_text(self) -> str:
        return _render(self.body())

    def document_text(self) -> str:
        doc = self.body()
        doc["timings"] = self.timings
        return _render(doc)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


# ---------------------------------------------------------------------------
# individual analyses


def _orbit_analysis(M: OrbitSubmanifold, config) -> dict:
    mc = mean_curvature(M)
    hom = homothecy_test(M)
    iso = isotropy_defect(M, seed=config.seed)
    return {"ok": True,
            "dim": M.dim, "codim": M.codim,
            "sphereNormalDim": len(M.nbar_frame),
            "ambientDim": M.rep.carrier_dim,
            "meanCurvature": {
                "radialComponent": mc.radial_component,
                "sphereResidual": mc.sphere_residual,
                "minimalInSphere": mc.minimal_in_sphere},
            "homothecy": {"isHomothecy": hom.is_homothecy,
                          "ratio": hom.ratio,
                          "gramResidual": hom.gram_residual},
            "isotropyDefect": {"defect": iso.defect,
                               "minNorm": iso.min_norm,
                               "maxNorm": iso.max_norm}}


def _verdict_ok(verdict) -> bool:
    """The bound holds and the holonomy is the slice representation, as
    on every s-orbit (Heintze-Olmos 1992), the only orbits the Nomizu
    guard lets through: a larger slice distance is a numerical failure."""
    return bool(verdict.bound_satisfied
                and verdict.slice_distance <= SLICE_TOL)


def _holonomy_analysis(M, config) -> dict:
    verdict = analyze(M, seed=config.seed)
    factors = [{"dim": f.dim, "algebraDim": f.algebra_dim,
                "transitive": f.transitive,
                "probeOrbitDims": list(f.evidence.probe_orbit_dims)}
               for f in verdict.factors]
    return {"ok": _verdict_ok(verdict),
            "algebraDim": verdict.algebra.dim,
            "rank": verdict.rank,
            "factorCount": verdict.factor_count,
            "factors": factors,
            "conjectureClass": verdict.conjecture_class,
            "boundSatisfied": verdict.bound_satisfied,
            "positionResidual": verdict.position_residual,
            "symmetricResidual": verdict.symmetric_residual,
            "sliceHolonomyDistance": verdict.slice_distance}


def _bound_analysis(M, config) -> dict:
    verdict = analyze(M, seed=config.seed)
    # a flat normal bundle has no factor and nothing to certify
    cert = (commuting_certificate(M, verdict=verdict) if verdict.factors
            else CommutingCertificate())
    bound = M.dim // 2
    return {"ok": _verdict_ok(verdict),
            "rank": verdict.rank,
            "orbitDim": M.dim,
            "bound": bound,
            "attained": verdict.rank == bound,
            "certificate": {
                "pairs": len(cert.pairs),
                "independent": cert.independent,
                "flatFactors": list(cert.flat_factors),
                "maxPairwiseCommutator": cert.max_pairwise_commutator}}


def _spectrum_dict(spec) -> dict:
    return {"lambdaHats": [[v, m] for v, m in spec.lambda_hats],
            "verticalValue": spec.vertical_value,
            "verticalMult": spec.vertical_mult,
            "tubeDim": spec.tube_dim,
            "meanTerm": spec.mean_term,
            "footEigenvalues": list(spec.foot_eigenvalues),
            "source": spec.source}


def _tube_analysis(M, config) -> dict:
    from .transport import OrbitCurve
    from .tubes import (TubePatch, caustic_rank_check, choose_tube_direction,
                        dupin_check, normal_exponential_differential,
                        normal_exponential_fd_residual,
                        seeded_tube_direction, spectra_agree)
    xi = (choose_tube_direction(M) if config.direction_seed is None
          else seeded_tube_direction(M, config.direction_seed))
    curve = (OrbitCurve(orbit=M, segments=config.curve_arcs)
             if config.curve_arcs else None)
    # one foot for both routes; the formula first, so that a focal
    # direction raises FocalDegeneracy before any stencil runs
    patch = TubePatch(M, xi, curve=curve)
    formula, direct = patch.formula, patch.spectrum
    gap = spectra_agree(formula, direct)
    out = {"formula": _spectrum_dict(formula),
           "direct": _spectrum_dict(direct),
           "agreementGap": gap,
           "multiplicityTotal": direct.multiplicity_total()}
    if formula.lambda_hats and formula.lambda_hats[0][1] >= 2:
        dup = dupin_check(M, xi, patch=patch)
        out["dupin"] = {"maxHat1Derivative": dup.max_hat1_derivative,
                        "maxHat2Derivative": dup.max_hat2_derivative,
                        "directionsTested": dup.directions_tested}
        ca = caustic_rank_check(M, xi, patch=patch)
        out["caustic"] = {"kernelDim": ca.kernel_dim,
                          "kernelAngleToE1": ca.kernel_angle_to_e1,
                          "shift": ca.shift}
    # at the foot, where every other tube quantity is measured
    sv = rank_reveal(normal_exponential_differential(patch.foot, patch.xi1),
                     M.tols.rank)[1]
    out["normalExponential"] = {
        "minSingularValue": float(np.min(sv)),
        "fdResidual": normal_exponential_fd_residual(M, xi, patch=patch)}
    out["ok"] = bool(gap <= 1e-4
                     and direct.multiplicity_total() == direct.tube_dim)
    return out


def _coxeter_analysis(M, config) -> dict:
    from .coxeter import (curvature_normals, focal_displacement,
                          reflection_group)
    cn = curvature_normals(M, seed=config.seed)
    grp = reflection_group(cn)
    zs = np.array([focal_displacement(cn, i, seed=config.seed + i + 1)
                   for i in range(cn.count)])
    # the origin (to the rank test at the base point's scale) is an
    # orbit of dimension 0: the circle's only focal point.  It is told
    # apart first, since the tangent SVD rescales a tiny point to unit
    # norm; the other orbit dimensions come from one stacked SVD
    origin = rank_reveal(zs.reshape(len(zs), 1, -1), M.tols.rank,
                         scale=float(np.linalg.norm(M.point)))[3] == 0
    dims = np.zeros(len(zs), dtype=int)
    dims[~origin] = orbit_dims(M.rep, zs[~origin], tols=M.tols)
    drops = [{"normalIndex": i, "orbitDim": int(dim),
              "drops": bool(dim < M.dim)} for i, dim in enumerate(dims)]
    ok = all(d["drops"] for d in drops)
    return {"ok": bool(ok),
            "normalCount": cn.count,
            "multiplicities": list(cn.multiplicities),
            "residual": cn.residual,
            "positionPairings": list(cn.position_pairings()),
            "pairwiseAnglesDeg": [[float(np.degrees(a)) for a in row]
                                  for row in cn.pairwise_angles()],
            "group": {"order": grp.order, "spanDim": grp.span_dim,
                      "closureDefect": grp.closure_defect},
            "singularDrops": drops}


def _veronese_analysis(M, config) -> dict:
    from .veronese import verify_veronese_facts
    rep = verify_veronese_facts(config.n, seed=config.seed,
                                tols=config.resolve_tolerances())
    return {"ok": rep.all_pass(),
            "n": rep.n, "r": rep.r,
            "dim": rep.dim, "codim": rep.codim,
            "minimalInSphere": rep.minimal_in_sphere,
            "sphereResidual": rep.sphere_residual,
            "holonomyRank": rep.holonomy_rank,
            "factorCount": rep.factor_count,
            "factorDim": rep.factor_dim,
            "algebraDim": rep.algebra_dim,
            "transitive": rep.transitive,
            "homothecyOk": rep.homothecy_ok,
            "beta": rep.beta,
            "betaExpected": rep.beta_expected,
            "alphaResidual": rep.alpha_residual,
            "failures": list(rep.failures())}


def _transport_audit_analysis(M, config) -> dict:
    from .transport import (DEFAULT_STEP, OrbitCurve, exact_transport_vector,
                            parallel_transport_normal,
                            traceless_spectra_along,
                            transport_convergence_audit)
    if len(M.nbar_frame) == 0:
        raise NotApplicable("the orbit has no sphere-normal direction "
                            "to transport")
    rng = np.random.default_rng(config.seed)
    c = rng.standard_normal(M.dim)
    c /= np.linalg.norm(c)
    x = np.einsum("i,ijk->jk", c, M.m_generators)
    step = DEFAULT_STEP if config.step is None else config.step
    curve = OrbitCurve(orbit=M, segments=((x, 1.0),), step=step)
    xi = M.nbar_frame[0]
    audit = transport_convergence_audit(curve, xi)
    res = parallel_transport_normal(curve, xi)
    _, spectra = traceless_spectra_along(res)
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    return {"ok": bool(audit.drift_halving_ok),
            "steps": list(audit.steps),
            "drifts": list(audit.drifts),
            "endpointGaps": list(audit.endpoint_gaps),
            "exactEndpointGap": float(np.linalg.norm(
                res.xi_end - exact_transport_vector(curve, xi))),
            "orderEstimate": audit.order_estimate,
            "driftHalvingOk": audit.drift_halving_ok,
            "eigenvalueDrift": eig_drift,
            "transportDrift": res.drift,
            "minNormRatio": res.min_ratio}


def _loop_probe_analysis(M, config) -> dict:
    probe = loop_holonomy_probe(M, seed=config.seed)
    return {"ok": bool(probe.containment_residual <= 1e-4),
            "spanDim": probe.span.dim,
            "rawDim": probe.raw_dim,
            "loopCount": len(probe.logs),
            "containmentResidual": probe.containment_residual,
            "loopRadius": probe.loop_radius}


class _Analysis(NamedTuple):
    """What one analysis is; one that reads rep runs on the orbit."""

    run: Callable               # (orbit or None, config) -> section
    reads: frozenset            # keys besides seed and tolerances
    layer: str | None = None    # the one more layer module it runs
    command: tuple = ()         # (name, help) of its own subcommand


_ORBIT = frozenset({"rep", "point"})

ANALYSES = {
    "orbit": _Analysis(_orbit_analysis, _ORBIT),
    "holonomy": _Analysis(_holonomy_analysis, _ORBIT),
    "bound": _Analysis(_bound_analysis, _ORBIT),
    "tube": _Analysis(
        _tube_analysis, _ORBIT | {"direction", "curve"}, ".tubes",
        ("tube-spectrum", "formula vs patch tube spectra, plus the "
                          "derivative and caustic checks")),
    "coxeter": _Analysis(_coxeter_analysis, _ORBIT, ".coxeter", (
        "coxeter", "curvature normals and the reflection group")),
    "veronese-facts": _Analysis(
        _veronese_analysis, frozenset({"n"}), ".veronese",
        ("verify-veronese", "fact suite for one n")),
    "transport-audit": _Analysis(
        _transport_audit_analysis, _ORBIT | {"step"}, ".transport",
        ("transport-audit", "step-halving convergence audit of transport")),
    "loop-probe": _Analysis(_loop_probe_analysis, _ORBIT, ".transport"),
}
KNOWN_ANALYSES = tuple(ANALYSES)
# the keys an analysis may leave unread
_READ_KEYS = frozenset().union(*(a.reads for a in ANALYSES.values()))
_CONFIG_KEYS = _READ_KEYS | {"analyses", "seed", "tolerances", "out"}


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute the configured analyses; failures never cancel siblings."""
    analyses: dict = {}
    timings: dict = {}

    orbit = orbit_error = None
    if config.representation is not None:    # an analysis reads rep
        try:
            orbit = build_orbit(config.representation, config.base_point,
                                tols=config.resolve_tolerances())
        except NormholoError as exc:
            orbit_error = exc

    for name in config.analyses:
        t0 = time.perf_counter()
        try:
            analysis = ANALYSES[name]
            if "rep" in analysis.reads and orbit is None:
                raise orbit_error
            analyses[name] = analysis.run(orbit, config)
        except NormholoError as exc:
            analyses[name] = {"ok": False,
                              "error": {"type": type(exc).__name__,
                                        "message": str(exc)}}
        timings[name] = time.perf_counter() - t0

    passed = all(res.get("ok", False) for res in analyses.values())
    return Report(config=config, analyses=analyses, passed=passed,
                  timings=timings)
