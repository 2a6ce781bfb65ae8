"""Command-line front end; writes deterministic JSON reports.

Exit codes: 0 all analyses passed, 1 an analysis failed or hard-errored
(report still written), 2 configuration did not parse or --out could
not be opened.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

from . import __version__
from .errors import InvalidInput, NormholoError
from .report import (ANALYSES, KNOWN_ANALYSES, SCHEMA_VERSION, ScenarioConfig,
                     _render, parse_rep_spec, run_scenario)

_SEED_ENV = "NORMHOLO_SEED"

# a subcommand takes the flag of each config key its analysis reads; the
# values stay strings, which ScenarioConfig parses as it does a file's
_FLAGS = {
    "rep": dict(default="", help="representation: sl-so:<r> or "
                "product:sl-so:<r1>,sl-so:<r2>,..."),
    "point": dict(default="", help="base point: veronese | diag:<v1,v2,...> "
                  "| random-regular:<seed>; products take one factor spec "
                  "per block, ';'-separated"),
    "n": dict(required=True, help="dimension, 2..6"),
    "direction": dict(help="canonical (the default) | seed:<k>"),
    "curve": dict(help="JSON list of [generatorIndex, t] segments"),
    "step": dict(help="baseline transport step"),
}


def _add_common(p: argparse.ArgumentParser, reads=()) -> None:
    for key in _FLAGS:
        if key in reads:
            p.add_argument(f"--{key}", **_FLAGS[key])
    p.add_argument("--seed",
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
    _add_common(p, ("rep", "point"))
    p.add_argument("--do", default=None,
                   help="comma list from: " + ",".join(KNOWN_ANALYSES)
                        + " (default: the --config file's analyses, else "
                          "orbit)")

    for name, analysis in ANALYSES.items():
        if analysis.command:
            p = sub.add_parser(analysis.command[0], help=analysis.command[1])
            p.set_defaults(analysis=name)
            _add_common(p, analysis.reads)

    p = sub.add_parser("sweep", help="one analysis over a grid")
    _add_common(p, ("rep",))
    p.add_argument("--analysis", default="veronese-facts",
                   choices=list(KNOWN_ANALYSES))
    p.add_argument("--ns", default=None,
                   help="comma list of n values (veronese-facts)")
    p.add_argument("--points", default=None,
                   help="';'-separated point specs (other analyses); a "
                        "product rep takes one factor spec per block, so "
                        "its points are read that many specs at a time")
    return top


def _config_from_args(args: argparse.Namespace) -> dict:
    """The --config object with the flags merged over it; InvalidInput
    when the file is unreadable or not a JSON object, or --curve is not
    JSON.  json is imported only where there is JSON to read."""
    raw: dict = {}
    if args.config:
        import json
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
    for key in (*_FLAGS, "out"):
        val = getattr(args, key, None)
        if val not in (None, ""):
            raw[key] = val
    if getattr(args, "curve", None):
        import json
        try:
            raw["curve"] = json.loads(args.curve)
        except ValueError as exc:
            raise InvalidInput(f"--curve is not valid JSON: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    elif "seed" not in raw:
        raw["seed"] = os.environ.get(_SEED_ENV, "") or 0
    return raw


def _scenario_configs(args: argparse.Namespace, raw: dict) -> list:
    """The command's scenarios: one, or one per sweep grid point."""
    if args.command == "analyze":
        # --do overrides the file's "analyses"; with neither, run orbit
        if args.do is not None:
            raw = {**raw, "analyses": [x.strip() for x in args.do.split(",")
                                       if x.strip()]}
        config = ScenarioConfig.from_dict({"analyses": ["orbit"], **raw})
        if not config.analyses:
            raise InvalidInput("--do or the config's analyses name no "
                               "analysis")
        return [config]
    raw = {**raw, "analyses": [args.analysis]}
    if args.command != "sweep":
        return [ScenarioConfig.from_dict(raw)]
    # a grid flag the analysis does not read is an error, not a no-op
    reads = ANALYSES[args.analysis].reads
    grid = {"--ns": ("n", args.ns), "--points": ("point", args.points),
            "--rep": ("rep", args.rep)}
    unread = [flag for flag, (key, value) in grid.items()
              if value not in (None, "") and key not in reads]
    if unread:
        raise InvalidInput(f"sweep over {args.analysis} does not read "
                           f"{', '.join(unread)}")
    if "n" in reads:
        if not args.ns:
            raise InvalidInput(f"sweep over {args.analysis} needs --ns")
        return [ScenarioConfig.from_dict({**raw, "n": n})
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
        {**raw, "rep": args.rep, "point": ";".join(specs[i:i + blocks])})
        for i in range(0, len(specs), blocks)]


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


def entry() -> int:
    """Process entry of `python -m normholo.cli` and the `normholo`
    script.  The objects that the imports made live until the process
    exits, so they move to the cyclic GC's permanent generation, which
    no collection walks, the full one at shutdown included.  main()
    called from Python keeps a normal GC."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
