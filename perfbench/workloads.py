"""Benchmark workloads: scenario specs drawn from a seed, and report checks.

Each workload is a list of scenario configs (the dicts that
``normholo.report.ScenarioConfig.from_dict`` accepts) plus one headline
``python -m normholo.cli`` command.  The workload seed picks the
random-regular points, the tube directions and the config seeds (loop
and probe directions, transport-audit curves).  The program only ever
sees the resulting specs.

The checks assert closed-form facts of the orbits in scope, never float
bytes of a stored report, so a change of eigensolver or closure
algorithm that keeps the mathematics passes.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("holonomy-large", "transport-loops", "sweep-small")

# Tolerances the headroom metric measures residuals against.
SLICE_TOL = 1e-7
TUBE_GAP_TOL = 1e-4
LOOP_CONTAINMENT_TOL = 1e-4
SPHERE_TOL = 1e-8
GRAM_TOL = 1e-8
COMMUTATOR_TOL = 1e-8
HEADROOM_CAP = 16.0


def scenarios(workload: str, seed: int) -> list:
    """Scenario config dicts of one pass over the workload.

    The workload seed is the config seed (loop and probe directions,
    the transport-audit curve), the random-regular seed, the
    tube-direction seed and the seed of the tube curve.
    """
    if workload == "holonomy-large":
        # Closure and invariant decomposition at normal dims up to 21; no
        # transport or tubes.
        do = ["orbit", "holonomy", "bound"]
        return [_cfg(seed, rep="sl-so:6", point="veronese", analyses=do),
                _cfg(seed, rep="sl-so:7", point="veronese", analyses=do),
                _cfg(seed, rep="product:sl-so:4,sl-so:4",
                     point="veronese;veronese", analyses=do)]
    if workload == "transport-loops":
        # The transport stepper does nearly all the work; the closures
        # are tiny.
        do = ["loop-probe", "transport-audit"]
        curve = tube_curve(seed)
        return [_cfg(seed, rep="sl-so:3", point="veronese", analyses=do),
                _cfg(seed, rep="sl-so:4", point="veronese", analyses=do),
                _cfg(seed, rep="sl-so:4", point="veronese", analyses=["tube"],
                     curve=curve, step=1e-3)]
    if workload == "sweep-small":
        # Many small orbits: fixed per-call cost dominates.
        do = ["orbit", "holonomy", "coxeter"]
        out = [_cfg(seed, rep=f"sl-so:{r}", point=f"random-regular:{seed}",
                    analyses=do) for r in (4, 5)]
        out.append(_cfg(seed, rep="sl-so:3", point="diag:1,0,-1",
                        analyses=do))
        out += [_cfg(seed, rep=f"sl-so:{r}", point="veronese",
                     analyses=["orbit", "tube"], direction=f"seed:{seed}")
                for r in (4, 5)]
        out.append(_cfg(seed, rep="product:sl-so:3,sl-so:3",
                        point="veronese;veronese",
                        analyses=["orbit", "holonomy", "bound"]))
        out += [_cfg(seed, n=n, analyses=["veronese-facts"]) for n in (2, 3, 4)]
        return out
    raise ValueError(f"unknown workload '{workload}'; choose from {WORKLOADS}")


def tube_curve(seed: int) -> list:
    """Two-segment curve of total parameter length 0.5 along two distinct
    generators of so(4), drawn from the seed."""
    rng = random.Random(seed)
    g1, g2 = rng.sample(range(6), 2)
    t1 = rng.uniform(0.15, 0.35)
    return [[g1, t1], [g2, 0.5 - t1]]


def _cfg(seed: int, **kw) -> dict:
    kw["seed"] = seed
    return kw


def headline_command(workload: str, seed: int) -> list:
    """Arguments of the workload's ``python -m normholo.cli`` command."""
    if workload == "holonomy-large":
        args = ["analyze", "--rep", "sl-so:7", "--point", "veronese",
                "--do", "orbit,holonomy,bound"]
    elif workload == "transport-loops":
        args = ["analyze", "--rep", "sl-so:4", "--point", "veronese",
                "--do", "loop-probe,transport-audit"]
    elif workload == "sweep-small":
        args = ["sweep", "--analysis", "veronese-facts", "--ns", "2,3,4"]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return args + ["--seed", str(seed)]


def _block_sizes(rep: str) -> list:
    if not rep:
        return []
    parts = rep[len("product:"):].split(",") if rep.startswith("product:") \
        else [rep]
    return [int(p.strip()[len("sl-so:"):]) for p in parts]


def check_body(body: dict) -> list:
    """(check name, passed) pairs for one report body."""
    config = body["config"]
    analyses = body["analyses"]
    out = [("summary.pass", body["summary"]["pass"] is True)]
    for name, res in sorted(analyses.items()):
        out.append((f"{name}.ok", res.get("ok") is True and "error" not in res))
    if not all(ok for _, ok in out):
        return out

    sizes = _block_sizes(config["rep"])
    point = config["point"]
    n = None
    if len(sizes) == 1 and point == "veronese":
        n = sizes[0] - 1
    if "veronese-facts" in analyses:
        n = config["n"]
        facts = analyses["veronese-facts"]
        out += _veronese_checks("veronese-facts", n, facts["dim"],
                                facts["codim"], facts["algebraDim"],
                                facts["factorCount"], facts["transitive"])
    elif n is not None:
        if "orbit" in analyses:
            orb = analyses["orbit"]
            out.append(("veronese.dim", orb["dim"] == n))
            out.append(("veronese.codim", orb["codim"] == n * (n + 1) // 2))
        if "holonomy" in analyses:
            hol = analyses["holonomy"]
            out += _veronese_checks("holonomy", n, None, None,
                                    hol["algebraDim"], hol["factorCount"],
                                    hol["factors"][0]["transitive"])
        if "loop-probe" in analyses:
            out.append(("loop-probe.spanDim",
                        analyses["loop-probe"]["spanDim"] == n * (n - 1) // 2))

    if len(sizes) == 2 and point == "veronese;veronese":
        if "holonomy" in analyses:
            out.append(("product.factorCount",
                        analyses["holonomy"]["factorCount"] == 2))
        if "bound" in analyses:
            cert = analyses["bound"]["certificate"]
            out.append(("product.certificatePairs", cert["pairs"] == 2))
            out.append(("product.maxPairwiseCommutator",
                        cert["maxPairwiseCommutator"] <= COMMUTATOR_TOL))

    if "coxeter" in analyses and len(sizes) == 1:
        cox = analyses["coxeter"]
        if point == "diag:1,0,-1":
            out.append(("a2.normalCount", cox["normalCount"] == 3))
            out.append(("a2.groupOrder", cox["group"]["order"] == 6))
        elif point.startswith("random-regular:"):
            out.append(("random-regular.groupOrder",
                        cox["group"]["order"] == math.factorial(sizes[0])))
    return out


def _veronese_checks(prefix, n, dim, codim, algebra_dim, factor_count,
                     transitive) -> list:
    out = []
    if dim is not None:
        out.append((f"{prefix}.dim", dim == n))
        out.append((f"{prefix}.codim", codim == n * (n + 1) // 2))
    out.append((f"{prefix}.algebraDim", algebra_dim == n * (n - 1) // 2))
    out.append((f"{prefix}.factorCount", factor_count == 1))
    out.append((f"{prefix}.transitive", transitive == (n == 2)))
    return out


def residuals(body: dict) -> list:
    """(residual, tolerance) pairs of the checked residuals in a body.

    Sphere and homothecy residuals count only where the report claims
    the property; elsewhere they measure distance from it, not error.
    An analysis that is not ok has no residuals; its checks fail.
    """
    out = []
    for name, res in body["analyses"].items():
        if res.get("ok") is not True:
            continue
        if "sliceHolonomyDistance" in res:
            out.append((res["sliceHolonomyDistance"], SLICE_TOL))
        if name == "tube":
            out.append((res["agreementGap"], TUBE_GAP_TOL))
        if name == "loop-probe":
            out.append((res["containmentResidual"], LOOP_CONTAINMENT_TOL))
        if name == "veronese-facts":
            out.append((res["sphereResidual"], SPHERE_TOL))
        if name == "orbit":
            mc = res["meanCurvature"]
            if mc["minimalInSphere"]:
                out.append((mc["sphereResidual"], SPHERE_TOL))
            hom = res["homothecy"]
            if hom["isHomothecy"]:
                out.append((hom["gramResidual"], GRAM_TOL))
    return out


def headroom_digits(pairs) -> float:
    """min over pairs of log10(tolerance / residual), capped."""
    best = HEADROOM_CAP
    for resid, tol in pairs:
        resid = abs(float(resid))
        if not math.isfinite(resid):
            return -HEADROOM_CAP
        if resid > 0.0:
            best = min(best, math.log10(tol / resid))
    return best
