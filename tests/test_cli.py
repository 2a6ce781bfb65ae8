"""End-to-end command-line behavior: exit codes, determinism, output."""

import json
import shlex
from pathlib import Path

import pytest

from normholo.cli import main
from normholo.report import SCHEMA_VERSION


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--rep", "sl-so:3", "--point", "diag:nan,0,-1"],
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
])
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


def test_readme_commands_run(capsys):
    # every example of the README's command-line block parses and passes
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
