"""End-to-end command-line behavior: exit codes, determinism, output."""

import json

import pytest

from normholo.cli import main


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
    assert doc["schemaVersion"] == 1
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
    assert cox["group"]["allElementsPermuteHyperplanes"] is True


def test_transport_audit_command(capsys):
    rc = main(["transport-audit", "--rep", "sl-so:4", "--point", "veronese"])
    out = capsys.readouterr().out
    assert rc == 0
    audit = json.loads(out)["analyses"]["transport-audit"]
    assert audit["driftHalvingOk"] is True
    assert audit["orderEstimate"] > 2.0


def test_failing_analysis_exits_one(capsys):
    rc = main(["coxeter", "--rep", "sl-so:4", "--point", "veronese"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    assert doc["summary"]["pass"] is False


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
    ["tube-spectrum", "--rep", "sl-so:4", "--point", "veronese",
     "--step", "nan"],
])
def test_bad_input_exits_two(capsys, argv):
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


def test_sweep_requires_grid(capsys):
    rc = main(["sweep", "--analysis", "veronese-facts"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err
