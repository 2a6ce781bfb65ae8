"""Scenario configuration, analysis orchestration, JSON reports.

The report body is rendered by a deterministic serializer: keys sorted,
floats at 17 significant digits, no whitespace variation.  Timings sit
outside the body so repeated runs with one seed produce byte-identical
bodies.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .coxeter import curvature_normals, focal_displacement, reflection_group
from .errors import InvalidInput, NormholoError, NotApplicable
from .holonomy import (CommutingCertificate, analyze, commuting_certificate,
                       loop_holonomy_probe)
from .linalg import DEFAULT_TOLS, Tolerances
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    isotropy_defect, mean_curvature)
from .srep import SymmetricPairRep, random_regular_point
from .transport import (DEFAULT_STEP, OrbitCurve, exact_transport_vector,
                        parallel_transport_normal, traceless_spectra_along,
                        transport_convergence_audit)
from .tubes import (caustic_rank_check, choose_tube_direction, dupin_check,
                    normal_exponential_differential,
                    normal_exponential_fd_residual, seeded_tube_direction,
                    spectra_agree, tube_spectrum_direct,
                    tube_spectrum_via_formula)
from .veronese import FACT_NS, verify_veronese_facts

SCHEMA_VERSION = 2

KNOWN_ANALYSES = ("orbit", "holonomy", "bound", "tube", "coxeter",
                  "veronese-facts", "transport-audit", "loop-probe")

_CONFIG_KEYS = {"rep", "point", "analyses", "seed", "tolerances", "n",
                "direction", "curve", "step", "out"}
_TOL_KEYS = {"sym": "sym", "eig": "eig", "rank": "rank",
             "clusterGap": "cluster_gap"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description; round-trips through to_dict.

    Construction parses the specs once, and any spec that does not parse
    raises InvalidInput: the rep and the point when an analysis builds
    the orbit, the veronese-facts n, the tube direction, and the curve
    against the rep's group dimension.
    """

    rep: str = ""
    point: str = ""
    analyses: tuple = ()
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    n: int | None = None
    direction: str = "canonical"
    curve: tuple = ()
    step: float | None = None
    out: str | None = None
    # parsed from the specs on construction; base_point is read-only and
    # direction_seed is None for the canonical direction
    representation: SymmetricPairRep | None = field(
        default=None, init=False, compare=False, repr=False)
    base_point: np.ndarray | None = field(
        default=None, init=False, compare=False, repr=False)
    direction_seed: int | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        group_dim = None
        if any(a != "veronese-facts" for a in self.analyses):
            rep = parse_rep_spec(self.rep)
            point = parse_point_spec(rep, self.point)
            point.flags.writeable = False
            object.__setattr__(self, "representation", rep)
            object.__setattr__(self, "base_point", point)
            group_dim = rep.group_dim
        if "veronese-facts" in self.analyses and self.n not in FACT_NS:
            raise InvalidInput(f"veronese-facts needs n in {FACT_NS[0]}.."
                               f"{FACT_NS[-1]}, got {self.n}")
        if self.direction != "canonical":
            if not self.direction.startswith("seed:"):
                raise InvalidInput(f"direction '{self.direction}' not "
                                   "recognized; expected canonical or "
                                   "seed:<k>")
            object.__setattr__(self, "direction_seed", _seed(
                f"seed in direction '{self.direction}'",
                self.direction[len("seed:"):]))
        curve = _typed("curve", self.curve, (list, tuple), "a list")
        object.__setattr__(self, "curve", tuple(
            _curve_segment(seg, group_dim) for seg in curve))

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        tols = dict(_typed("tolerances", raw.get("tolerances", {}), dict,
                           "an object"))
        bad = set(tols) - set(_TOL_KEYS)
        if bad:
            raise InvalidInput(f"unknown tolerance keys: {sorted(bad)}")
        for key, value in tols.items():
            _positive_float(f"tolerance '{key}'", value)
        analyses = tuple(_typed("analyses", raw.get("analyses", ()),
                                (list, tuple), "a list"))
        for a in analyses:
            if a not in KNOWN_ANALYSES:
                raise InvalidInput(f"unknown analysis '{a}'; "
                                   f"choose from {KNOWN_ANALYSES}")
        kw = {key: _typed(key, raw[key], str, "a string")
              for key in ("rep", "point", "direction", "out")
              if raw.get(key) is not None}
        if raw.get("n") is not None:
            kw["n"] = _integer("n", raw["n"])
        if raw.get("step") is not None:
            kw["step"] = _positive_float("step", raw["step"])
        return cls(analyses=analyses, seed=_seed("seed", raw.get("seed", 0)),
                   tolerances=tols, curve=raw.get("curve", ()), **kw)

    def to_dict(self) -> dict:
        d = {"rep": self.rep, "point": self.point,
             "analyses": list(self.analyses), "seed": self.seed,
             "tolerances": dict(self.tolerances)}
        if self.n is not None:
            d["n"] = self.n
        if self.direction != "canonical":
            d["direction"] = self.direction
        if self.curve:
            d["curve"] = [list(seg) for seg in self.curve]
        if self.step is not None:
            d["step"] = self.step
        return d

    def resolve_tolerances(self) -> Tolerances:
        kw = {_TOL_KEYS[k]: float(v) for k, v in self.tolerances.items()}
        return Tolerances(**{**DEFAULT_TOLS.__dict__, **kw})


def _typed(name: str, value, types, what: str):
    """value when it is one of types, else InvalidInput naming the field."""
    if not isinstance(value, types):
        raise InvalidInput(f"{name} must be {what}, got "
                           f"{type(value).__name__}")
    return value


def _positive_float(name: str, value) -> float:
    """value as a float that is finite and > 0, else InvalidInput."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = float("nan")
    if not (np.isfinite(x) and x > 0.0):
        raise InvalidInput(f"{name} must be a positive finite number, "
                           f"got {value!r}")
    return x


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
        gi, t = seg
        index, t = float(gi), float(t)
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
    if not (np.isfinite(t) and t >= 0.0):
        raise InvalidInput(f"curve segment duration must be finite and "
                           f">= 0, got {t}")
    return int(index), t


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


@dataclass
class Report:
    """Analysis results split into a deterministic body plus timings."""

    config: ScenarioConfig
    analyses: dict
    passed: bool
    hard_error: bool
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
        if self.hard_error:
            return 1
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


def _holonomy_analysis(M, config) -> dict:
    verdict = analyze(M, seed=config.seed)
    factors = [{"dim": f.dim, "algebraDim": f.algebra_dim,
                "transitive": f.transitive,
                "probeOrbitDims": list(f.evidence.probe_orbit_dims)}
               for f in verdict.factors]
    return {"ok": bool(verdict.bound_satisfied),
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
    return {"ok": bool(verdict.bound_satisfied),
            "rank": verdict.rank,
            "orbitDim": M.dim,
            "bound": bound,
            "attained": verdict.rank == bound,
            "certificate": {
                "pairs": len(cert.pairs),
                "independent": cert.independent,
                "flatFactors": list(cert.flat_factors),
                "maxPairwiseCommutator": cert.max_pairwise_commutator}}


def _tube_direction(M, config) -> np.ndarray:
    if config.direction_seed is None:
        return choose_tube_direction(M)
    return seeded_tube_direction(M, config.direction_seed)


def _tube_curve(M, config) -> OrbitCurve | None:
    if not config.curve:
        return None
    segs = tuple((M.rep.generators[gi], t) for gi, t in config.curve)
    return OrbitCurve(orbit=M, segments=segs)


def _spectrum_dict(spec) -> dict:
    return {"lambdaHats": [[v, m] for v, m in spec.lambda_hats],
            "verticalValue": spec.vertical_value,
            "verticalMult": spec.vertical_mult,
            "tubeDim": spec.tube_dim,
            "meanTerm": spec.mean_term,
            "footEigenvalues": list(spec.foot_eigenvalues),
            "source": spec.source}


def _tube_analysis(M, config) -> dict:
    xi = _tube_direction(M, config)
    curve = _tube_curve(M, config)
    formula = tube_spectrum_via_formula(M, xi, curve=curve)
    direct, patch = tube_spectrum_direct(M, xi, curve=curve)
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
                          "shift": ca.shift,
                          "shiftedSpectrumPositive":
                              ca.shifted_spectrum_positive}
    diff = normal_exponential_differential(M, xi)
    sv = np.linalg.svd(diff, compute_uv=False)
    out["normalExponential"] = {
        "minSingularValue": float(np.min(sv)),
        "fdResidual": normal_exponential_fd_residual(M, xi,
                                                     seed=config.seed)}
    out["ok"] = bool(gap <= 1e-4
                     and direct.multiplicity_total() == direct.tube_dim)
    return out


def _coxeter_analysis(M, config) -> dict:
    cn = curvature_normals(M, seed=config.seed)
    grp = reflection_group(cn)
    drops = []
    for i in range(cn.count):
        z = focal_displacement(cn, i, seed=config.seed + i + 1)
        sub = build_orbit(M.rep, z, tols=M.tols)
        drops.append({"normalIndex": i, "orbitDim": sub.dim,
                      "drops": sub.dim < M.dim})
    ok = all(d["drops"] for d in drops)
    return {"ok": bool(ok),
            "normalCount": cn.count,
            "multiplicities": list(cn.multiplicities),
            "residual": cn.residual,
            "positionPairings": list(cn.position_pairings()),
            "pairwiseAnglesDeg": [[float(np.degrees(a)) for a in row]
                                  for row in cn.pairwise_angles()],
            "group": {"order": grp.order, "finite": grp.finite,
                      "spanDim": grp.span_dim,
                      "closureDefect": grp.closure_defect},
            "singularDrops": drops}


def _veronese_analysis(M, config) -> dict:
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


_ANALYSES = {
    "orbit": _orbit_analysis,
    "holonomy": _holonomy_analysis,
    "bound": _bound_analysis,
    "tube": _tube_analysis,
    "coxeter": _coxeter_analysis,
    "veronese-facts": _veronese_analysis,
    "transport-audit": _transport_audit_analysis,
    "loop-probe": _loop_probe_analysis,
}


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute the configured analyses; failures never cancel siblings."""
    analyses: dict = {}
    timings: dict = {}
    hard_error = False

    orbit: OrbitSubmanifold | None = None
    orbit_error: NormholoError | None = None
    if config.representation is not None:
        try:
            orbit = build_orbit(config.representation, config.base_point,
                                tols=config.resolve_tolerances())
        except NormholoError as exc:
            orbit_error = exc

    for name in config.analyses:
        t0 = time.perf_counter()
        try:
            if name != "veronese-facts" and orbit is None:
                raise orbit_error
            analyses[name] = _ANALYSES[name](orbit, config)
        except NormholoError as exc:
            hard_error = True
            analyses[name] = {"ok": False,
                              "error": {"type": type(exc).__name__,
                                        "message": str(exc)}}
        timings[name] = time.perf_counter() - t0

    passed = all(res.get("ok", False) for res in analyses.values()) \
        if analyses else True
    return Report(config=config, analyses=analyses, passed=passed,
                  hard_error=hard_error, timings=timings)
