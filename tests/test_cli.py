"""The command-line front end: arguments, exit codes, and delivery."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finharm.cli
from finharm.cli import main


def test_chartable_stdout(capsys):
    assert main(["chartable", "cyclic:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["group"]["order"] == 2
    assert doc["table"]["rows"] == [["1+0i", "1+0i"], ["1+0i", "-1+0i"]]
    assert "digest" in doc


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["chartable", "cyclic:3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"


def test_csv_format(capsys):
    assert main(["chartable", "cyclic:2", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# config")
    assert "verdict,pass" in text


def test_plancherel_check_with_count_and_seed(capsys):
    assert main(["plancherel-check", "dihedral:3", "--count", "30", "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["num_functions"] == 30
    assert doc["config"]["seed"] == 11


def test_whittaker_check_selectors(capsys):
    code = main(
        ["whittaker-check", "symmetric:3", "--subgroup", "1", "--psi-index", "1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    checks = doc["checks"]
    assert len(checks) == 1
    assert checks[0]["subgroup"]["members"] == [0, 1]
    assert checks[0]["identity"]["kernel_at_identity"] == ["0+0i", "2+0i", "2+0i"]


def test_conjecture_probe_runs(capsys):
    assert main(["conjecture-probe", "cyclic:4", "--count", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probes"]
    assert all(blk["identity_check"] for blk in doc["probes"])


def test_sweep_small_group(capsys):
    assert main(["sweep", "cyclic:2", "--count", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["checks"]) == 3  # trivial U (1 character) + full U (2)
    assert doc["verdict"] == "pass"


def test_bad_spec_exits_2(capsys):
    assert main(["chartable", "nonsense:1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_subgroup_argument_exits_2(capsys):
    assert main(["sweep", "cyclic:2", "--subgroup", "a,b"]) == 2
    assert "bad --subgroup" in capsys.readouterr().err


def test_bad_config_exits_2(capsys):
    assert main(["chartable", "cyclic:2", "--tol", "0.5"]) == 2
    assert main(["chartable", "cyclic:2", "--count", "0"]) == 2


def test_partial_report_still_delivered(tmp_path, capsys):
    out = tmp_path / "partial.json"
    assert main(["sweep", "cyclic:201", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["incomplete"] is True
    assert doc["verdict"] == "fail"


def test_failing_verdict_exits_1(monkeypatch, capsys):
    build_report = finharm.cli.build_report

    def failing_report(command, config):
        report = build_report(command, config)
        payload = dict(report.payload, verdict="fail")
        return dataclasses.replace(report, payload=payload, passed=False)

    monkeypatch.setattr(finharm.cli, "build_report", failing_report)
    assert main(["chartable", "cyclic:2"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["chartable", "cyclic:2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_unwritable_out_on_aborted_run_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "partial.json"
    assert main(["sweep", "symmetric:3", "--psi-index", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err
    assert "error: psi index 1 out of range" in err
    assert "Traceback" not in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "cyclic:2"])
    assert err.value.code == 2


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(finharm.cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "finharm.cli", "chartable", "cyclic:3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
