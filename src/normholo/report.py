"""Scenario configuration, analysis orchestration, JSON reports.

The report body is rendered by a deterministic serializer: keys sorted,
floats at 17 significant digits, no whitespace variation.  Timings sit
outside the body so repeated runs with one seed produce byte-identical
bodies.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .coxeter import (curvature_normals, focal_displacement,
                      hyperplane_permutation_check, reflection_group)
from .errors import InvalidInput, NormholoError
from .holonomy import (analyze, commuting_certificate, loop_holonomy_probe,
                       slice_holonomy_distance)
from .linalg import DEFAULT_TOLS, Tolerances
from .orbit import (OrbitSubmanifold, build_orbit, homothecy_test,
                    isotropy_defect, mean_curvature)
from .srep import SymmetricPairRep, random_regular_point
from .transport import (DEFAULT_STEP, OrbitCurve, parallel_transport_normal,
                        traceless_spectra_along, transport_convergence_audit)
from .tubes import (caustic_rank_check, choose_tube_direction, dupin_check,
                    normal_exponential_differential,
                    normal_exponential_fd_residual, seeded_tube_direction,
                    spectra_agree, tube_spectrum_direct,
                    tube_spectrum_via_formula)
from .veronese import verify_veronese_facts

SCHEMA_VERSION = 1

KNOWN_ANALYSES = ("orbit", "holonomy", "bound", "tube", "coxeter",
                  "veronese-facts", "transport-audit", "loop-probe")

_CONFIG_KEYS = {"rep", "point", "analyses", "seed", "tolerances", "n",
                "direction", "curve", "step", "out"}
_TOL_KEYS = {"sym": "sym", "eig": "eig", "rank": "rank",
             "clusterGap": "cluster_gap", "cluster_gap": "cluster_gap"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario description; round-trips through to_dict."""

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

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        tols = dict(raw.get("tolerances", {}))
        bad = set(tols) - set(_TOL_KEYS)
        if bad:
            raise InvalidInput(f"unknown tolerance keys: {sorted(bad)}")
        analyses = tuple(raw.get("analyses", ()))
        for a in analyses:
            if a not in KNOWN_ANALYSES:
                raise InvalidInput(f"unknown analysis '{a}'; "
                                   f"choose from {KNOWN_ANALYSES}")
        curve = tuple(tuple(seg) for seg in raw.get("curve", ()))
        point = str(raw.get("point", ""))
        for part in point.split(";"):
            if part.strip().startswith("diag:"):
                _diag_values(part.strip())
        step = None if raw.get("step") is None else float(raw["step"])
        if step is not None and not (np.isfinite(step) and step > 0.0):
            raise InvalidInput(f"step must be positive and finite, got {step}")
        return cls(rep=str(raw.get("rep", "")),
                   point=point,
                   analyses=analyses,
                   seed=int(raw.get("seed", 0)),
                   tolerances=tols,
                   n=None if raw.get("n") is None else int(raw["n"]),
                   direction=str(raw.get("direction", "canonical")),
                   curve=curve,
                   step=step,
                   out=raw.get("out"))

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


def parse_rep_spec(spec: str) -> SymmetricPairRep:
    """'sl-so:<r>' or 'product:sl-so:<r1>,sl-so:<r2>,...'."""
    spec = spec.strip()
    if spec.startswith("product:"):
        parts = spec[len("product:"):].split(",")
        return SymmetricPairRep.product(tuple(_block_size(p) for p in parts))
    return SymmetricPairRep.for_size(_block_size(spec))


def _block_size(part: str) -> int:
    part = part.strip()
    if not part.startswith("sl-so:"):
        raise InvalidInput(f"representation spec '{part}' not recognized; "
                           "expected sl-so:<r>")
    try:
        return int(part[len("sl-so:"):])
    except ValueError as exc:
        raise InvalidInput(f"bad block size in '{part}'") from exc


def parse_point_spec(rep: SymmetricPairRep, spec: str) -> np.ndarray:
    """Base point from 'veronese', 'diag:...', or 'random-regular:<seed>'.

    Products take one factor spec per block, separated by ';' (or ','
    when no factor uses a comma list).
    """
    spec = spec.strip()
    blocks = rep.sizes
    if len(blocks) == 1:
        return _factor_point(blocks[0], spec)
    if ";" in spec:
        parts = [p.strip() for p in spec.split(";")]
    else:
        parts = [p.strip() for p in spec.split(",")]
    if len(parts) != len(blocks):
        raise InvalidInput(f"point spec has {len(parts)} factors, "
                           f"representation has {len(blocks)}")
    mats = [_factor_point(b, p) for b, p in zip(blocks, parts)]
    out = np.zeros((rep.total_size, rep.total_size))
    o = 0
    for b, m in zip(blocks, mats):
        out[o:o + b, o:o + b] = m
        o += b
    return out


def _diag_values(spec: str) -> np.ndarray:
    """Entries of a 'diag:v1,v2,...' factor spec; all must be finite."""
    try:
        d = np.array([float(x) for x in spec[len("diag:"):].split(",")])
    except ValueError as exc:
        raise InvalidInput(f"bad diag entries in '{spec}'") from exc
    if not np.all(np.isfinite(d)):
        raise InvalidInput(f"diag entries must be finite, got '{spec}'")
    return d


def _factor_point(r: int, spec: str) -> np.ndarray:
    if spec == "veronese":
        e1 = np.zeros(r)
        e1[0] = 1.0
        return np.outer(e1, e1) - np.eye(r) / r
    if spec.startswith("diag:"):
        d = _diag_values(spec)
        if len(d) != r:
            raise InvalidInput(f"diag point needs {r} entries, "
                               f"got {len(d)}")
        return np.diag(d - d.mean())
    if spec.startswith("random-regular:"):
        seed = int(spec[len("random-regular:"):])
        return random_regular_point(SymmetricPairRep.for_size(r), seed)
    raise InvalidInput(f"point spec '{spec}' not recognized; expected "
                       "veronese, diag:<values>, or random-regular:<seed>")


# ---------------------------------------------------------------------------
# deterministic rendering


def _coerce(value):
    """Recursively turn numpy containers into plain Python values."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_coerce(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    return value


def _render(value) -> str:
    """JSON text with sorted keys and %.17g floats."""
    value = _coerce(value)
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
        return "%.17g" % value
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r")
        out = out.replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(value, list):
        return "[" + ",".join(_render(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f'{_render(str(k))}:{_render(v)}'
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


def _orbit_analysis(M: OrbitSubmanifold, config, tols) -> dict:
    mc = mean_curvature(M)
    hom = homothecy_test(M)
    iso = isotropy_defect(M, seed=config.seed)
    return {"ok": True,
            "dim": M.dim, "codim": M.codim,
            "sphereNormalDim": M.normal_bar.dim,
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


def _holonomy_analysis(M, config, tols) -> dict:
    verdict = analyze(M, seed=config.seed, tols=tols)
    slice_dist = slice_holonomy_distance(M, verdict.algebra, tols=tols)
    factors = [{"dim": f.dim, "algebraDim": f.algebra_dim,
                "transitive": f.transitive,
                "irreducibleByProbe": f.irreducible_by_probe,
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
            "sliceHolonomyDistance": slice_dist}


def _bound_analysis(M, config, tols) -> dict:
    verdict = analyze(M, seed=config.seed, tols=tols)
    cert = commuting_certificate(M, verdict=verdict, tols=tols)
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


def _tube_direction(M, config, tols) -> np.ndarray:
    d = config.direction
    if d == "canonical":
        return choose_tube_direction(M, tols=tols)
    if d.startswith("seed:"):
        return seeded_tube_direction(M, int(d[len("seed:"):]), tols=tols)
    raise InvalidInput(f"direction '{d}' not recognized; expected "
                       "canonical or seed:<k>")


def _tube_curve(M, config) -> OrbitCurve | None:
    if not config.curve:
        return None
    segs = []
    for seg in config.curve:
        if len(seg) != 2:
            raise InvalidInput("curve segments are [generatorIndex, t] pairs")
        gi, t = int(seg[0]), float(seg[1])
        if not 0 <= gi < M.rep.group_dim:
            raise InvalidInput(f"generator index {gi} out of range")
        segs.append((M.rep.generators[gi], t))
    step = DEFAULT_STEP if config.step is None else config.step
    return OrbitCurve(orbit=M, segments=tuple(segs), step=step)


def _spectrum_dict(spec) -> dict:
    return {"lambdaHats": [[v, m] for v, m in spec.lambda_hats],
            "verticalValue": spec.vertical_value,
            "verticalMult": spec.vertical_mult,
            "tubeDim": spec.tube_dim,
            "meanTerm": spec.mean_term,
            "footEigenvalues": list(spec.foot_eigenvalues),
            "source": spec.source}


def _tube_analysis(M, config, tols) -> dict:
    xi = _tube_direction(M, config, tols)
    curve = _tube_curve(M, config)
    formula = tube_spectrum_via_formula(M, xi, curve=curve, tols=tols)
    direct, patch = tube_spectrum_direct(M, xi, curve=curve, tols=tols)
    gap = spectra_agree(formula, direct)
    out = {"formula": _spectrum_dict(formula),
           "direct": _spectrum_dict(direct),
           "agreementGap": gap,
           "multiplicityTotal": direct.multiplicity_total()}
    if formula.lambda_hats and formula.lambda_hats[0][1] >= 2:
        dup = dupin_check(M, xi, patch=patch, tols=tols)
        out["dupin"] = {"maxHat1Derivative": dup.max_hat1_derivative,
                        "maxHat2Derivative": dup.max_hat2_derivative,
                        "directionsTested": dup.directions_tested}
        ca = caustic_rank_check(M, xi, patch=patch, tols=tols)
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


def _coxeter_analysis(M, config, tols) -> dict:
    cn = curvature_normals(M, seed=config.seed, tols=tols)
    grp = reflection_group(cn, tols=tols)
    perms = [bool(hyperplane_permutation_check(e, grp))
             for e in grp.elements]
    drops = []
    for i in range(cn.count):
        z = focal_displacement(cn, i, seed=config.seed + i + 1)
        sub = build_orbit(M.rep, z, tols=tols)
        drops.append({"normalIndex": i, "orbitDim": sub.dim,
                      "drops": sub.dim < M.dim})
    ok = all(perms) and all(d["drops"] for d in drops)
    return {"ok": bool(ok),
            "normalCount": cn.count,
            "multiplicities": list(cn.multiplicities),
            "residual": cn.residual,
            "positionPairings": list(cn.position_pairings()),
            "pairwiseAnglesDeg": [[float(np.degrees(a)) for a in row]
                                  for row in cn.pairwise_angles()],
            "group": {"order": grp.order, "finite": grp.finite,
                      "spanDim": grp.span_dim,
                      "closureDefect": grp.closure_defect,
                      "allElementsPermuteHyperplanes": all(perms)},
            "singularDrops": drops}


def _veronese_analysis(M, config, tols) -> dict:
    if config.n is None:
        raise InvalidInput("veronese-facts needs config field n")
    rep = verify_veronese_facts(config.n, seed=config.seed, tols=tols)
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


def _transport_audit_analysis(M, config, tols) -> dict:
    rng = np.random.default_rng(config.seed)
    c = rng.standard_normal(M.dim)
    c /= np.linalg.norm(c)
    x = np.einsum("g,gjk->jk", c @ M.m_basis, M.rep.generators)
    step = DEFAULT_STEP if config.step is None else config.step
    curve = OrbitCurve(orbit=M, segments=((x, 1.0),), step=step)
    xi = M.nbar_frame[0]
    audit = transport_convergence_audit(curve, xi)
    res = parallel_transport_normal(curve, xi)
    _, spectra = traceless_spectra_along(res, tols=tols)
    eig_drift = float(np.max(np.abs(spectra - spectra[0])))
    return {"ok": bool(audit.drift_halving_ok),
            "steps": list(audit.steps),
            "drifts": list(audit.drifts),
            "endpointGaps": list(audit.endpoint_gaps),
            "orderEstimate": audit.order_estimate,
            "driftHalvingOk": audit.drift_halving_ok,
            "eigenvalueDrift": eig_drift,
            "transportDrift": res.drift,
            "minNormRatio": res.min_ratio}


def _loop_probe_analysis(M, config, tols) -> dict:
    probe = loop_holonomy_probe(M, seed=config.seed, tols=tols)
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
    tols = config.resolve_tolerances()
    analyses: dict = {}
    timings: dict = {}
    hard_error = False

    orbit: OrbitSubmanifold | None = None
    orbit_error: NormholoError | None = None
    needs_orbit = [a for a in config.analyses if a != "veronese-facts"]
    if needs_orbit:
        try:
            rep = parse_rep_spec(config.rep)
            point = parse_point_spec(rep, config.point)
            orbit = build_orbit(rep, point, tols=tols)
        except NormholoError as exc:
            orbit_error = exc

    for name in config.analyses:
        t0 = time.perf_counter()
        try:
            if name != "veronese-facts" and orbit is None:
                raise orbit_error or InvalidInput(
                    "analysis needs --rep and --point")
            analyses[name] = _ANALYSES[name](orbit, config, tols)
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
