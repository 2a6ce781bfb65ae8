"""End-to-end command-line behavior: exit codes, determinism, output."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import normholo
from normholo.cli import main
from normholo.errors import InvalidInput
from normholo.report import (ANALYSES, KNOWN_ANALYSES, SCHEMA_VERSION,
                             ScenarioConfig)


def _body(doc_text):
    doc = json.loads(doc_text)
    doc.pop("timings", None)
    return doc


def test_analyze_orbit(capsys):
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "orbit"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == SCHEMA_VERSION
    assert doc["summary"]["pass"] is True
    assert doc["analyses"]["orbit"]["dim"] == 3


def test_repeated_runs_identical(capsys):
    argv = ["analyze", "--rep", "sl-so:4", "--point", "veronese",
            "--do", "orbit,holonomy", "--seed", "3"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert _body(out1) == _body(out2)
    # bodies are byte-identical once timings are stripped at the source
    b1, b2 = json.dumps(_body(out1)), json.dumps(_body(out2))
    assert b1 == b2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "orbit", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["summary"]["pass"] is True


def test_unwritable_out_exits_two_before_running(tmp_path, capsys,
                                                 monkeypatch):
    import normholo.cli as cli

    def no_run(config):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err


def test_orbit_that_cannot_be_built_exits_one(capsys):
    # the specs parse; the orbit of a zero point fails its analysis
    rc = main(["analyze", "--rep", "sl-so:3", "--point", "diag:0,0,0",
               "--do", "orbit"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["analyses"]["orbit"]["error"]["type"] == "InvalidInput"


def test_verify_veronese(capsys):
    rc = main(["verify-veronese", "--n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    facts = doc["analyses"]["veronese-facts"]
    assert facts["transitive"] is True
    assert facts["failures"] == []


def test_tube_spectrum_command(capsys):
    rc = main(["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese"])
    out = capsys.readouterr().out
    assert rc == 0
    tube = json.loads(out)["analyses"]["tube"]
    assert tube["agreementGap"] <= 1e-4
    assert tube["multiplicityTotal"] == 5
    assert tube["caustic"]["kernelDim"] == 2


def test_coxeter_command(capsys):
    rc = main(["coxeter", "--rep", "sl-so:3", "--point", "diag:1,0,-1"])
    out = capsys.readouterr().out
    assert rc == 0
    cox = json.loads(out)["analyses"]["coxeter"]
    assert cox["group"]["order"] == 6


def test_transport_audit_command(capsys):
    rc = main(["transport-audit", "--rep", "sl-so:4", "--point", "veronese"])
    out = capsys.readouterr().out
    assert rc == 0
    audit = json.loads(out)["analyses"]["transport-audit"]
    assert audit["driftHalvingOk"] is True
    assert audit["orderEstimate"] > 2.0
    # the stepper at the default step against exact transport
    assert 0.0 < audit["exactEndpointGap"] <= 1e-9


def test_flat_normal_bundle_passes_probe_and_bound(capsys):
    rc = main(["analyze", "--rep", "sl-so:3", "--point", "diag:1,0,-1",
               "--do", "holonomy,bound,loop-probe,coxeter"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    probe = doc["analyses"]["loop-probe"]
    assert (probe["spanDim"], probe["rawDim"], probe["loopCount"]) \
        == (0, 0, 12)
    assert probe["containmentResidual"] == 0.0
    assert doc["analyses"]["bound"]["certificate"]["pairs"] == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--do", "transport-audit", "--point", "veronese"],
    ["sweep", "--analysis", "transport-audit", "--points", "veronese"],
])
def test_transport_audit_without_sphere_normal_direction(capsys, argv):
    # the sl-so:2 orbit is a circle whose only normal is the position
    rc = main(argv + ["--rep", "sl-so:2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    doc = json.loads(captured.out)
    body = doc["sweep"][0] if "sweep" in doc else doc
    err = body["analyses"]["transport-audit"]["error"]
    assert err["type"] == "NotApplicable"


def test_failing_analysis_exits_one(capsys):
    rc = main(["coxeter", "--rep", "sl-so:4", "--point", "veronese"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    assert doc["summary"]["pass"] is False


def test_tiny_step_exits_one(capsys):
    # a step far below the per-segment cap fails at once, not by looping
    rc = main(["transport-audit", "--rep", "sl-so:3", "--point", "veronese",
               "--step", "1e-300"])
    out = capsys.readouterr().out
    assert rc == 1
    err = json.loads(out)["analyses"]["transport-audit"]["error"]
    assert err["type"] == "InvalidInput"
    assert "steps" in err["message"]


def test_unknown_analysis_exits_two(capsys):
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "bogus"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err


def test_missing_required_flag_exits_two(capsys):
    rc = main(["verify-veronese"])
    capsys.readouterr()
    assert rc == 2


_BAD_INPUT = [
    ["analyze", "--rep", "sl-so:3", "--point", "diag:nan,0,-1"],
    ["analyze", "--rep", "sl-so:3", "--point", "veronese", "--do", ""],
    ["analyze", "--rep", "sl-so:3", "--point", "veronese", "--do", ","],
    ["analyze", "--rep", "sl-so:3", "--point", "veronese",
     "--do", "orbit,orbit"],
    ["analyze", "--rep", "sl-so:3", "--point", "diag:1,inf,-1"],
    ["transport-audit", "--rep", "sl-so:4", "--point", "veronese",
     "--step", "0"],
    ["transport-audit", "--rep", "sl-so:4", "--point", "veronese",
     "--step", "-0.01"],
    ["transport-audit", "--rep", "sl-so:4", "--point", "veronese",
     "--step", "nan"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[1, NaN]]"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[1, -0.2]]"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[1.7, 0.2]]"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[6, 0.2]]"],
    ["tube-spectrum", "--rep", "product:sl-so:3,sl-so:3",
     "--point", "veronese;veronese", "--curve", "[[0, 0.1], [6, 0.2]]"],
    ["coxeter", "--rep", "sl-so:3", "--point", "random-regular:abc"],
    ["coxeter", "--rep", "product:sl-so:3,sl-so:3",
     "--point", "veronese;random-regular:1.5"],
    # a dict stands for a --config file with that content
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"tolerances": {"rank": "abc"}}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"tolerances": {"rank": -1}}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"tolerances": {"eig": 0}}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"tolerances": {"clusterGap": float("inf")}}],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--direction", "seed:abc"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--direction", "bogus"],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"seed": 1.7}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"seed": True}],
    ["analyze", "--do", "veronese-facts", "--config", {"n": 2.5}],
    ["analyze", "--do", "veronese-facts", "--config", {"n": True}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--do", "holonomy", "--seed", "-1"],
    ["verify-veronese", "--n", "3", "--config", {"seed": -5}],
    ["analyze", "--rep", "sl-so:4", "--point", "random-regular:-2"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--direction", "seed:-3"],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[0"],
    # block sizes below 2 and a veronese-facts n outside 2..6
    ["analyze", "--rep", "sl-so:0", "--point", "veronese"],
    ["analyze", "--rep", "sl-so:1", "--point", "veronese", "--do", "orbit"],
    ["analyze", "--rep", "sl-so:-3", "--point", "veronese"],
    ["analyze", "--rep", "product:sl-so:3,sl-so:1",
     "--point", "veronese;veronese"],
    ["verify-veronese", "--n", "-1"],
    ["sweep", "--analysis", "veronese-facts", "--ns", "2,7"],
    # a sweep grid flag that the analysis does not read
    ["sweep", "--analysis", "orbit", "--rep", "sl-so:3",
     "--points", "veronese", "--ns", "2,3"],
    ["sweep", "--analysis", "veronese-facts", "--ns", "2",
     "--points", "diag:1,0,-1"],
    ["sweep", "--analysis", "veronese-facts", "--ns", "2",
     "--rep", "sl-so:3"],
    # specs that only an analysis-time parse used to catch
    ["analyze", "--rep", "sl-so:3", "--point", "diag:1,2"],
    ["analyze", "--rep", "sl-so:3", "--point", "foo"],
    ["analyze", "--rep", "sl-so:abc", "--point", "veronese"],
    ["analyze", "--rep", "product:sl-so:3,sl-so:3", "--point", "veronese"],
    ["analyze", "--do", "orbit"],
    ["analyze", "--do", "veronese-facts"],
    # fields of the wrong JSON type
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"tolerances": [1]}],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"curve": 5}],
    ["analyze", "--point", "veronese", "--config", {"rep": 4}],
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"direction": 2}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"out": 5}],
    # a key that no analysis reads is parsed all the same
    ["verify-veronese", "--n", "2", "--config",
     {"rep": "sl-so:3", "point": "bogus"}],
    ["verify-veronese", "--n", "2", "--config", {"rep": "su:3"}],
    ["coxeter", "--rep", "sl-so:3", "--point", "diag:1,0,-1",
     "--config", {"direction": "bogus"}],
    ["analyze", "--rep", "sl-so:3", "--point", "veronese",
     "--config", {"step": 0}],
    # a JSON boolean is not a number
    ["transport-audit", "--rep", "sl-so:4", "--point", "veronese",
     "--config", {"step": True}],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--do", "holonomy,bound", "--config", {"tolerances": {"rank": True}}],
    # a flag value meets the parse a config-file value meets
    ["analyze", "--rep", "sl-so:4", "--point", "veronese", "--seed", "abc"],
    ["transport-audit", "--rep", "sl-so:4", "--point", "veronese",
     "--step", "abc"],
    ["verify-veronese", "--n", "abc"],
    # a JSON boolean is not a curve duration either
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--curve", "[[0, true]]"],
]


@pytest.mark.parametrize("argv", _BAD_INPUT)
def test_bad_input_exits_two(capsys, tmp_path, argv):
    cfg = tmp_path / "scenario.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = argv[:i] + [str(cfg)] + argv[i + 1:]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err


_RUNNABLE = {"rep": "sl-so:4", "point": "veronese", "analyses": ["holonomy"]}


@pytest.mark.parametrize("raw", [
    *(arg for argv in _BAD_INPUT for arg in argv if isinstance(arg, dict)),
    {"seed": -1}, {"seed": "x"}, {"step": "abc"}, {"step": -1.0},
    {"analyses": "orbit"}, {"rep": 4},
])
def test_bad_input_raises_on_the_keyword_route(raw):
    # the keyword constructor parses every key a config file gives
    ScenarioConfig(**_RUNNABLE)
    with pytest.raises(InvalidInput):
        ScenarioConfig(**{**_RUNNABLE, **raw})


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("NORMHOLO_SEED", "11")
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "orbit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["config"]["seed"] == 11


def test_seed_env_not_integer_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("NORMHOLO_SEED", "abc")
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "orbit"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err


def test_seed_env_negative_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("NORMHOLO_SEED", "-5")
    rc = main(["verify-veronese", "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err


def test_tolerance_is_kept_as_its_float(capsys, tmp_path):
    # a numeric string parses, and the body's config holds the number,
    # so it round-trips through from_dict
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"tolerances": {"rank": "1e-8"}}))
    rc = main(["analyze", "--rep", "sl-so:4", "--point", "veronese",
               "--do", "holonomy", "--config", str(cfg)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert rc == 0
    assert config["tolerances"] == {"rank": 1e-8}
    assert ScenarioConfig.from_dict(config).to_dict() == config


@pytest.mark.parametrize("content,argv", [
    (None, ["analyze", "--rep", "sl-so:4", "--point", "veronese"]),
    ("{bad", ["analyze", "--rep", "sl-so:4", "--point", "veronese"]),
    ("[1,2]", ["analyze", "--rep", "sl-so:4", "--point", "veronese"]),
    (b"\xff\xfe", ["coxeter", "--rep", "sl-so:3", "--point", "diag:1,0,-1"]),
    (None, ["sweep", "--analysis", "veronese-facts", "--ns", "2"]),
    ("[1,2]", ["sweep", "--analysis", "veronese-facts", "--ns", "2"]),
    ('"x"', ["verify-veronese", "--n", "2"]),
])
def test_unreadable_config_exits_two(capsys, tmp_path, content, argv):
    # content None: the --config file does not exist
    cfg = tmp_path / "scenario.json"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content)
    rc = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err
    assert str(cfg) in captured.err


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"rep": "sl-so:4", "point": "veronese",
                               "seed": 4, "tolerances": {"eig": 1e-8}}))
    rc = main(["analyze", "--config", str(cfg), "--do", "orbit",
               "--point", "diag:3,-1,-1,-1"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["point"] == "diag:3,-1,-1,-1"   # flag wins
    assert doc["config"]["seed"] == 4                    # file survives
    assert doc["config"]["tolerances"]["eig"] == 1e-8


# a config file that gives every key an analysis may read
_EVERY_KEY = {"rep": "sl-so:3", "point": "diag:1,0,-1", "n": 2,
              "direction": "seed:1", "curve": [[0, 0.1]], "step": 0.05}


@pytest.mark.parametrize("analysis", KNOWN_ANALYSES)
def test_body_config_keeps_only_the_keys_read(tmp_path, capsys, analysis):
    # a key the analysis does not read is parsed and dropped; rep and
    # point stay in every body, empty where unread
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(_EVERY_KEY))
    rc = main(["analyze", "--do", analysis, "--config", str(cfg)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert rc == 0
    reads = ANALYSES[analysis].reads
    assert set(config) == {"analyses", "seed", "tolerances", "rep",
                           "point"} | reads
    for key in ("rep", "point"):
        assert config[key] == (_EVERY_KEY[key] if key in reads else "")


def test_unread_keys_leave_the_body(tmp_path, capsys):
    # the orbit analysis reads neither n nor step
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n": 5, "step": 0.5}))
    rc = main(["analyze", "--rep", "sl-so:3", "--point", "veronese",
               "--do", "orbit", "--config", str(cfg)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert rc == 0
    assert config == {"analyses": ["orbit"], "point": "veronese",
                      "rep": "sl-so:3", "seed": 0, "tolerances": {}}
@pytest.mark.parametrize("file_analyses, do, ran", [
    (["holonomy"], None, ["holonomy"]),              # the file's list
    (["holonomy"], "loop-probe", ["loop-probe"]),    # --do overrides it
    (None, None, ["orbit"]),                         # neither: orbit
])
def test_config_file_analyses(tmp_path, capsys, file_analyses, do, ran):
    cfg = tmp_path / "scenario.json"
    content = {} if file_analyses is None else {"analyses": file_analyses}
    cfg.write_text(json.dumps(content))
    argv = ["analyze", "--rep", "sl-so:3", "--point", "veronese",
            "--config", str(cfg)]
    rc = main(argv + (["--do", do] if do else []))
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["analyses"] == ran
    assert sorted(doc["analyses"]) == ran


@pytest.mark.parametrize("file_analyses", ["holonomy", ["bogus"], [],
                                           ["orbit", "orbit"], [3]])
def test_bad_config_file_analyses_exit_two(tmp_path, capsys, file_analyses):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"analyses": file_analyses}))
    rc = main(["analyze", "--rep", "sl-so:3", "--point", "veronese",
               "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "config error" in captured.err


def test_sweep_veronese(capsys):
    rc = main(["sweep", "--analysis", "veronese-facts", "--ns", "2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == SCHEMA_VERSION
    assert len(doc["sweep"]) == 2
    assert doc["summary"]["pass"] is True
    assert doc["sweep"][0]["config"]["n"] == 2
    assert doc["sweep"][1]["config"]["n"] == 3


def test_sweep_points(capsys):
    rc = main(["sweep", "--analysis", "orbit", "--rep", "sl-so:3",
               "--points", "veronese;diag:1,0,-1"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["sweep"]) == 2


def test_sweep_product_points(capsys):
    # a product point is two ';'-separated factor specs, read in pairs
    rc = main(["sweep", "--analysis", "orbit",
               "--rep", "product:sl-so:3,sl-so:3",
               "--points", "veronese;veronese;veronese;diag:1,0,-1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [b["config"]["point"] for b in doc["sweep"]] == [
        "veronese;veronese", "veronese;diag:1,0,-1"]
    rc = main(["sweep", "--analysis", "orbit",
               "--rep", "product:sl-so:3,sl-so:3",
               "--points", "veronese;veronese;veronese"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err and captured.out == ""


def test_sweep_requires_grid(capsys):
    rc = main(["sweep", "--analysis", "veronese-facts"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = section[section.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("normholo ")]


def test_readme_analysis_table_matches_the_records():
    # the README's table of analyses is the ANALYSES records, row by row
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            name, reads, layer, command = (cell.strip().replace("`", "")
                                           for cell in line.split("|")[1:-1])
            rows[name] = (reads, layer, command)
    assert rows == {
        name: (", ".join(sorted(a.reads)), (a.layer or "").lstrip("."),
               a.command[0] if a.command else "")
        for name, a in ANALYSES.items()}


def test_readme_commands_run(capsys):
    # every example of the README's command-line block parses and passes
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


# a fresh interpreter runs one statement; stdout carries rc and the
# modules loaded by then, listed before json is imported to print them
_FRESH = """
import sys
rc = None
{}
modules = sorted(sys.modules)
import json
print(json.dumps([rc, modules]))
"""
# stdlib modules a command does not need: dataclasses never, and json
# only to read a --config file or --curve
_UNUSED_STDLIB = {"dataclasses", "json"}


def _src_env(**extra):
    """The environment of a fresh interpreter that imports this tree."""
    return dict(os.environ, **extra,
                PYTHONPATH=str(Path(normholo.__file__).resolve().parents[1]))


def _fresh(statement, *argv):
    """rc and the modules loaded after the statement runs in a fresh
    interpreter: the normholo submodules, by their short names, and those
    of _UNUSED_STDLIB."""
    proc = subprocess.run([sys.executable, "-c", _FRESH.format(statement),
                           *argv], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == ""
    rc, modules = json.loads(proc.stdout)
    return rc, ({name[len("normholo."):] for name in modules
                 if name.startswith("normholo.")}
                | (_UNUSED_STDLIB & set(modules)))


_LAYERS = {"tubes", "coxeter", "veronese", "transport"}
# what the holonomy command loads; each other command adds its layer
_HOLONOMY_SET = {"errors", "kernels", "linalg", "liealg", "srep", "orbit",
                 "holonomy", "report", "cli"}


@pytest.mark.parametrize("argv, layers", [
    (["analyze", "--rep", "sl-so:7", "--point", "veronese",
      "--do", "orbit,holonomy,bound"], set()),
    (["analyze", "--rep", "sl-so:4", "--point", "veronese",
      "--do", "loop-probe,transport-audit"], {"transport"}),
    (["sweep", "--analysis", "veronese-facts", "--ns", "2,3,4"],
     {"veronese"}),
])
def test_command_loads_only_the_layers_it_runs(tmp_path, argv, layers):
    out = tmp_path / "report.json"
    rc, modules = _fresh("from normholo import cli\n"
                         "rc = cli.main(sys.argv[1:])", *argv,
                         "--out", str(out))
    assert rc == 0
    assert json.loads(out.read_text())["summary"]["pass"] is True
    # neither dataclasses nor json: no command that reads no JSON loads them
    assert modules == _HOLONOMY_SET | layers


def test_bare_import_loads_the_numeric_core_only():
    _, modules = _fresh("import normholo")
    assert modules == {"errors", "kernels", "linalg"}


@pytest.mark.parametrize("analysis, layers", [
    ("orbit", set()), ("holonomy", set()), ("bound", set()),
    ("tube", {"tubes", "transport"}), ("coxeter", {"coxeter"}),
    ("veronese-facts", {"veronese"}), ("transport-audit", {"transport"}),
    ("loop-probe", {"transport"}),
])
def test_config_parse_imports_the_analysis_layer(analysis, layers):
    # the layer loads when the config parses, before any scenario runs
    raw = {"rep": "sl-so:4", "point": "veronese", "n": 2,
           "analyses": [analysis]}
    _, modules = _fresh("import json\nfrom normholo import report\n"
                        "report.ScenarioConfig.from_dict("
                        "json.loads(sys.argv[1]))", json.dumps(raw))
    assert modules & _LAYERS == layers


def test_every_analysis_dispatches_from_a_fresh_process(tmp_path):
    # one scenario names all eight analyses, so every layer that report
    # imports late runs.  The Veronese orbit has a curved normal bundle:
    # coxeter's curvature_normals refuses it, and the other seven pass
    cfg, out = tmp_path / "scenario.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"n": 2}))
    rc, modules = _fresh(
        "from normholo import cli\nrc = cli.main(sys.argv[1:])", "analyze",
        "--rep", "sl-so:4", "--point", "veronese",
        "--do", ",".join(KNOWN_ANALYSES),
        "--config", str(cfg), "--out", str(out))
    assert rc == 1
    assert _LAYERS <= modules
    analyses = json.loads(out.read_text())["analyses"]
    assert sorted(analyses) == sorted(KNOWN_ANALYSES)
    assert analyses.pop("coxeter")["error"]["type"] == "NotIsoparametric"
    assert all(res["ok"] for res in analyses.values())


@pytest.mark.parametrize("top, ok", [("0.91", True), ("0.901", True),
                                     ("0.9001", True), ("0.90005", False)])
def test_verdict_off_the_slice_representation_fails(capsys, top, ok):
    # eigenvalues 0.9 and 0.9 + gap on sl-so:8.  On an s-orbit the
    # holonomy is the slice representation: rank 4, factors (5, 2),
    # algebra dim 4.  Down to gap 1e-4 the verdict is that, with the
    # slice distance growing from 3e-13 to 2e-9 (the margin to
    # SLICE_TOL); at 5e-5 the rank threshold drops the so(3) curvature,
    # the slice distance reads 1, and neither section may pass
    from normholo.holonomy import SLICE_TOL
    rc = main(["analyze", "--rep", "sl-so:8", "--point",
               f"diag:0,0,0,0.9,0.9,{top},1.07,1.65",
               "--do", "holonomy,bound"])
    doc = json.loads(capsys.readouterr().out)
    hol = doc["analyses"]["holonomy"]
    assert rc == (0 if ok else 1)
    assert hol["ok"] is ok and doc["analyses"]["bound"]["ok"] is ok
    assert hol["boundSatisfied"] is True
    if ok:
        assert (hol["rank"], hol["algebraDim"]) == (4, 4)
        assert [f["dim"] for f in hol["factors"]] == [5, 2]
        assert hol["sliceHolonomyDistance"] <= 0.1 * SLICE_TOL
    else:
        assert hol["sliceHolonomyDistance"] > SLICE_TOL


# the holonomy fields the README lists as round-off around an exact 0
_HOLONOMY_ROUND_OFF = ("positionResidual", "sliceHolonomyDistance",
                       "symmetricResidual")


def _holonomy_body(threads):
    """The sl-so:10 Veronese holonomy body, in a fresh interpreter at
    the given OpenBLAS thread count."""
    env = _src_env(OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", (
        "import sys\n"
        "from normholo.report import ScenarioConfig, run_scenario\n"
        "config = ScenarioConfig.from_dict({'rep': 'sl-so:10', "
        "'point': 'veronese', 'analyses': ['holonomy']})\n"
        "sys.stdout.write(run_scenario(config).body_text())\n")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


def _differing_leaves(a, b, path=""):
    """(path, a, b) of every leaf where two parsed bodies differ; a
    difference of keys, lengths or types is one leaf."""
    if type(a) is not type(b) or (isinstance(a, (dict, list))
                                  and len(a) != len(b)):
        return [(path, a, b)]
    if isinstance(a, dict):
        if set(a) != set(b):
            return [(path, sorted(a), sorted(b))]
        return [d for k in a for d in _differing_leaves(a[k], b[k],
                                                        f"{path}.{k}")]
    if isinstance(a, list):
        return [d for x, y in zip(a, b) for d in _differing_leaves(x, y,
                                                                   path)]
    return [] if a == b else [(path, a, b)]


def test_body_across_blas_thread_counts():
    # the README's determinism scope: byte-identical at one thread count;
    # across thread counts only its round-off fields move, by round-off
    one = _holonomy_body(1)
    assert _holonomy_body(1) == one
    diffs = _differing_leaves(json.loads(one), json.loads(_holonomy_body(2)))
    for path, a, b in diffs:
        assert path.rsplit(".", 1)[-1] in _HOLONOMY_ROUND_OFF, path
        assert isinstance(a, float) and abs(a - b) <= 1e-13, path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    round_off = readme[readme.index("Some report fields are round-off"):]
    assert all(f"{name}`" in round_off for name in _HOLONOMY_ROUND_OFF)


_HEADLINES = [
    ["analyze", "--rep", "sl-so:7", "--point", "veronese",
     "--do", "orbit,holonomy,bound"],
    ["analyze", "--rep", "sl-so:4", "--point", "veronese",
     "--do", "loop-probe,transport-audit"],
    ["sweep", "--analysis", "veronese-facts", "--ns", "2,3,4"],
]


@pytest.mark.parametrize("argv, rc", [
    *((argv, 0) for argv in _HEADLINES),
    (["analyze", "--rep", "sl-so:8", "--point",
      "diag:0,0,0,0.9,0.9,0.90005,1.07,1.65", "--do", "holonomy,bound"], 1),
    (["analyze", "--rep", "sl-so:4", "--point", "veronese",
      "--seed", "abc"], 2),
])
def test_process_entry_matches_main(capsys, argv, rc):
    # python -m normholo.cli freezes the import-time heap and runs main:
    # the exit code, the body without timings and stderr are main's
    proc = subprocess.run([sys.executable, "-m", "normholo.cli", *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)
    assert main(argv) == proc.returncode == rc
    captured = capsys.readouterr()
    assert captured.err == proc.stderr
    if rc == 2:
        assert captured.out == proc.stdout == ""
    else:
        assert (json.dumps(_body(captured.out))
                == json.dumps(_body(proc.stdout)))


def test_main_keeps_a_normal_gc(capsys):
    import gc
    frozen = gc.get_freeze_count()
    assert main(_HEADLINES[2]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_process_entry():
    # the installed script calls the function the __main__ block calls
    import ast
    import tomllib
    import normholo.cli as cli

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["normholo"]
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    module, name = target.split(":")
    assert module == "normholo.cli"
    assert ast.unparse(guard.body[0]) == f"sys.exit({name}())"
    # and that function freezes the import-time heap before main runs
    proc = subprocess.run([sys.executable, "-c", (
        "import gc, sys\n"
        "from normholo import cli\n"
        f"rc = cli.{name}()\n"
        "print(rc, gc.get_freeze_count() > 0)\n"), *_HEADLINES[2],
        "--out", os.devnull], env=_src_env(), capture_output=True, text=True,
        timeout=120)
    assert (proc.stdout, proc.stderr) == ("0 True\n", "")
