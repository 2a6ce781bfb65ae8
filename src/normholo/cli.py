"""Command-line front end; writes deterministic JSON reports.

Exit codes: 0 all analyses passed, 1 an analysis failed or hard-errored
(report still written), 2 configuration did not parse or --out could
not be opened.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .errors import InvalidInput, NormholoError
from .report import (KNOWN_ANALYSES, SCHEMA_VERSION, ScenarioConfig, _render,
                     parse_rep_spec, run_scenario)

_SEED_ENV = "NORMHOLO_SEED"


def _add_common(p: argparse.ArgumentParser, rep_point: bool = True) -> None:
    if rep_point:
        p.add_argument("--rep", default="",
                       help="representation: sl-so:<r> or "
                            "product:sl-so:<r1>,sl-so:<r2>,...")
        p.add_argument("--point", default="",
                       help="base point: veronese | diag:<v1,v2,...> | "
                            "random-regular:<seed>; products take one "
                            "factor spec per block, ';'-separated")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default from ${_SEED_ENV}, else 0)")
    p.add_argument("--config", default=None,
                   help="JSON file merged under the command-line flags")
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="normholo",
        description="orbit geometry and normal holonomy analyses")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run selected analyses on one orbit")
    _add_common(p)
    p.add_argument("--do", default="orbit",
                   help="comma list from: " + ",".join(KNOWN_ANALYSES))

    p = sub.add_parser("verify-veronese", help="fact suite for one n")
    _add_common(p, rep_point=False)
    p.add_argument("--n", type=int, required=True, help="dimension, 2..6")

    p = sub.add_parser("tube-spectrum",
                       help="formula vs patch tube spectra, plus the "
                            "derivative and caustic checks")
    _add_common(p)
    p.add_argument("--direction", default=None,
                   help="canonical (the default) | seed:<k>")
    p.add_argument("--curve", default=None,
                   help="JSON list of [generatorIndex, t] segments")

    p = sub.add_parser("coxeter",
                       help="curvature normals and the reflection group")
    _add_common(p)

    p = sub.add_parser("transport-audit",
                       help="step-halving convergence audit of transport")
    _add_common(p)
    p.add_argument("--step", type=float, default=None,
                   help="baseline transport step")

    p = sub.add_parser("sweep", help="one analysis over a grid")
    _add_common(p, rep_point=False)
    p.add_argument("--analysis", default="veronese-facts",
                   choices=list(KNOWN_ANALYSES))
    p.add_argument("--ns", default=None,
                   help="comma list of n values (veronese-facts)")
    p.add_argument("--points", default=None,
                   help="';'-separated point specs (other analyses); a "
                        "product rep takes one factor spec per block, so "
                        "its points are read that many specs at a time")
    p.add_argument("--rep", default="", help="representation for --points")
    return top


def _config_from_args(args: argparse.Namespace) -> dict:
    """The --config object with the flags merged over it; InvalidInput
    when the file is unreadable or not a JSON object, or --curve is not
    JSON."""
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:    # unreadable, or not JSON
            raise InvalidInput(f"cannot load config file '{args.config}': "
                               f"{exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidInput(f"config file '{args.config}' must hold a "
                               f"JSON object, got {type(raw).__name__}")
    # explicit flags override file values
    for key in ("rep", "point", "n", "direction", "step", "out"):
        val = getattr(args, key, None)
        if val not in (None, ""):
            raw[key] = val
    if getattr(args, "curve", None):
        try:
            raw["curve"] = json.loads(args.curve)
        except ValueError as exc:
            raise InvalidInput(f"--curve is not valid JSON: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    elif "seed" not in raw:
        # passed raw: the config parse rejects a non-integer value
        raw["seed"] = os.environ.get(_SEED_ENV, "") or 0
    return raw


_COMMAND_ANALYSIS = {"verify-veronese": "veronese-facts",
                     "tube-spectrum": "tube", "coxeter": "coxeter",
                     "transport-audit": "transport-audit"}


def _scenario_configs(args: argparse.Namespace, raw: dict) -> list:
    """The command's scenarios: one, or one per sweep grid point."""
    if args.command == "analyze":
        wanted = [x.strip() for x in args.do.split(",") if x.strip()]
        return [ScenarioConfig.from_dict({**raw, "analyses": wanted})]
    if args.command != "sweep":
        return [ScenarioConfig.from_dict(
            {**raw, "analyses": [_COMMAND_ANALYSIS[args.command]]})]
    if args.analysis == "veronese-facts":
        if not args.ns:
            raise InvalidInput("sweep over veronese-facts needs --ns")
        return [ScenarioConfig.from_dict(
            {**raw, "n": n, "analyses": ["veronese-facts"]})
            for n in args.ns.split(",")]
    if not args.points or not args.rep:
        raise InvalidInput("sweep needs --rep and --points")
    # a product point takes one factor spec per block: group them
    blocks = len(parse_rep_spec(args.rep).sizes)
    specs = [spec.strip() for spec in args.points.split(";")]
    if len(specs) % blocks:
        raise InvalidInput(f"--points has {len(specs)} factor specs, not a "
                           f"multiple of the {blocks} blocks of --rep")
    return [ScenarioConfig.from_dict(
        {**raw, "rep": args.rep, "point": ";".join(specs[i:i + blocks]),
         "analyses": [args.analysis]}) for i in range(0, len(specs), blocks)]


def _document(command: str, configs: list) -> tuple:
    """Run the scenarios; (document text, exit code)."""
    reports = [run_scenario(config) for config in configs]
    if command != "sweep":
        return reports[0].document_text(), reports[0].exit_code
    doc = {"schemaVersion": SCHEMA_VERSION,
           "toolVersion": __version__,
           "sweep": [r.body() for r in reports],
           "summary": {"pass": all(r.passed for r in reports),
                       "failures": [i for i, r in enumerate(reports)
                                    if not r.passed]},
           "timings": [r.timings for r in reports]}
    return _render(doc), max(r.exit_code for r in reports)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return int(exc.code or 0)

    # every scenario parses, and --out opens, before any runs
    try:
        configs = _scenario_configs(args, _config_from_args(args))
        out = configs[0].out
        sink = open(out, "w", encoding="utf-8") if out else None
    except (NormholoError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    with sink or contextlib.nullcontext(sys.stdout) as fh:
        text, code = _document(args.command, configs)
        fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
