"""The command-line front end: arguments, exit codes, and delivery."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finharm.characters
import finharm.cli
import finharm.reports
from finharm.cli import main


def test_chartable_stdout(capsys):
    assert main(["chartable", "cyclic:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["group"]["order"] == 2
    assert doc["table"]["rows"] == [["1+0i", "1+0i"], ["1+0i", "-1+0i"]]
    assert "digest" in doc


def test_text_only_stdout_receives_the_text():
    # a stdout without a byte buffer, as under contextlib.redirect_stdout,
    # which perfbench's worker uses
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert main(["chartable", "cyclic:2"]) == 0
    assert json.loads(captured.getvalue())["verdict"] == "pass"


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


def test_subgroup_generator_out_of_range_exits_2(capsys):
    assert main(["sweep", "cyclic:3", "--subgroup", "99999999999999999999999"]) == 2
    captured = capsys.readouterr()
    message = "generator index 99999999999999999999999 out of range for order 3"
    assert captured.err == f"error: {message}\n"
    assert json.loads(captured.out)["error"] == message


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


def test_class_algebra_over_memory_cap_exits_2(tmp_path, capsys):
    # 1024 classes exceed the cap of 512; it is refused before allocation
    out = tmp_path / "partial.json"
    assert main(["chartable", "cyclic:1024", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: class algebra of 1024 classes" in err
    assert "Traceback" not in err
    doc = json.loads(out.read_text())
    assert doc["incomplete"] is True
    assert doc["config"]["group_spec"] == "cyclic:1024"


def test_chartable_at_the_class_cap_passes(capsys):
    assert main(["chartable", "cyclic:512"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


def test_chartable_of_a_perm_spec_of_huge_degree(capsys):
    assert main(["chartable", "perm:100000000:(0 1)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["group"]["order"] == 2


def test_chartable_of_a_perm_spec_above_2048_elements(capsys):
    # A7, order 2520: every spec is capped at 4096, perm: as well
    assert main(["chartable", "perm:7:(0 1 2);(0 1 2 3 4 5 6)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["group"]["order"] == 2520


def test_deeply_nested_product_exits_2(capsys):
    spec = "product:" * 1200 + "cyclic:2" + "*cyclic:1" * 1200
    assert main(["chartable", spec]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "nested deeper" in captured.err
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["incomplete"] is True


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:" + "9" * 5000,
        "perm:3:(0 " + "1" * 5000 + ")",
        "symmetric:2000",
        "symmetric:200000",
        "heisenberg:1000000000000000003",
        "heisenberg:100000000000000003",
    ],
    ids=["long cyclic", "long perm point", "symmetric:2000", "symmetric:200000",
         "19-digit heisenberg", "18-digit heisenberg"],
)
def test_oversized_spec_integer_exits_2(capsys, spec):
    assert main(["chartable", spec]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["incomplete"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "cyclic:3", "--subgroup", "99999999999999999999999"],
        ["sweep", "cyclic:3", "--psi-index", str(2**70)],
        ["chartable", "caf\udce9:3"],
        ["chartable", "caf\u00e9 \u2603 \U0001f600:3"],
        ["chartable", "cyc\x7flic:3"],
        ["chartable", "cyc\nlic:3"],
    ],
    ids=["int beyond 64 bits", "psi index 2**70", "lone surrogate", "non-ASCII", "DEL", "newline"],
)
def test_awkward_partial_report_renders_as_json_dumps(capsys, payload_watch, argv):
    # orjson refuses the first three payloads (a lone surrogate is what
    # sys.argv holds for bytes that are not UTF-8) and writes the other three,
    # escaped as json escapes: either way the rendering must be json's, and
    # the digest its payload's
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["incomplete"] is True
    assert captured.out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    payload = {key: value for key, value in doc.items() if key not in ("digest", "wall_time")}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == doc["digest"]
    payload_watch.check()


@pytest.mark.parametrize("line_break", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
def test_csv_records_stay_on_one_line(capsys, line_break):
    assert main(["chartable", f"cyc{line_break}lic:3", "--format", "csv"]) == 2
    lines = capsys.readouterr().out.splitlines()
    escaped = line_break.replace("\r", "\\r").replace("\n", "\\n")
    assert f"group_spec,cyc{escaped}lic:3" in lines
    assert all(line.startswith("# ") or "," in line for line in lines)


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "MemoryError"),
        (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
    ],
)
def test_resource_exhaustion_exits_2_with_partial_report(monkeypatch, capsys, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(finharm.reports, "character_table", exhausted)
    assert main(["chartable", "symmetric:3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    doc = json.loads(captured.out)
    assert doc["incomplete"] is True
    assert doc["error"] == message
    assert doc["verdict"] == "fail"
    assert "group" not in doc


def test_failing_verdict_exits_1(monkeypatch, capsys):
    build_report = finharm.cli.build_report

    def failing_report(command, config):
        report = build_report(command, config)
        payload = dict(report.payload, verdict="fail")
        failed = dataclasses.replace(report, payload=payload)
        assert failed.passed is False
        return failed

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


def test_subcommands_are_the_command_table():
    # the parser's subcommands, and those taking pair selectors, are COMMANDS'
    parser = finharm.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(finharm.reports.COMMANDS)
    selectors = {"--subgroup", "--psi-index"}
    for name, sp in sub.choices.items():
        options = {opt for action in sp._actions for opt in action.option_strings}
        expected = selectors if finharm.reports.COMMANDS[name].pairs else set()
        assert options & selectors == expected, name
    selecting = [name for name, command in finharm.reports.COMMANDS.items() if command.pairs]
    assert selecting == ["whittaker-check", "conjecture-probe", "sweep"]


def test_lapack_failure_exits_2_without_traceback(monkeypatch, capsys):
    zgees = finharm.characters._ZGEES

    def failing(select, a, **kwargs):
        return (*zgees(select, a, **kwargs)[:-1], 1)

    monkeypatch.setattr(finharm.characters, "_ZGEES", failing)
    assert main(["chartable", "symmetric:4"]) == 2
    captured = capsys.readouterr()
    assert "error: failed to separate the 5 class-algebra eigenvalues" in captured.err
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["incomplete"] is True


def _run_child(*args: str | bytes, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the same package as this process,
    installed or not, with env added to this process's environment."""
    package_root = str(Path(finharm.cli.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
    )


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_spec_that_is_not_utf8_reaches_csv_as_its_bytes(tmp_path, errors):
    # sys.argv holds the byte 0xff as a lone surrogate, which neither a strict
    # stdout nor Path.write_text could encode; the partial report carries the
    # byte back, to a file and to stdout alike
    argv = ["-m", "finharm.cli", "chartable", b"\xff", "--format", "csv"]
    out = tmp_path / "report.csv"
    encoding = {"PYTHONIOENCODING": f"utf-8:{errors}"}
    to_file = _run_child(*argv, "--out", str(out), text=False, **encoding)
    to_stdout = _run_child(*argv, text=False, **encoding)
    for proc in (to_file, to_stdout):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: at position 0")
        assert b"Traceback" not in proc.stderr
    assert to_file.stdout == b""
    report = out.read_bytes()
    assert report == to_stdout.stdout
    assert b"\ngroup_spec,\xff\n" in report
    assert b"\nincomplete,true\n" in report


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spec_with_a_surrogate_that_stands_for_no_byte_exits_2(tmp_path, capsys, fmt):
    # only U+DC80..U+DCFF stand for bytes of a command line; a report of any
    # other lone surrogate has no bytes to be written as, so the spec is
    # refused before the run
    out = tmp_path / f"report.{fmt}"
    assert main(["chartable", "a\ud800", "--format", fmt, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    message = "group_spec holds a surrogate that stands for no byte: 'a\\ud800'"
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_module_entry_point():
    proc = _run_child("-m", "finharm.cli", "chartable", "cyclic:3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_cold_import_leaves_scipy_linalg_unloaded():
    # zgees comes from scipy's compiled extension; scipy.linalg's package
    # import, and the numpy.f2py and numpy.testing it pulls in, never run, and
    # neither the extension's module nor orjson stays loaded
    script = (
        "import sys\n"
        "import finharm.cli\n"
        "unwanted = ('scipy.linalg', 'scipy.linalg._flapack', 'numpy.f2py', 'numpy.testing',\n"
        "            'orjson')\n"
        "print(sorted(m for m in unwanted if m in sys.modules))\n"
        "sys.exit(finharm.cli.main(['chartable', 'symmetric:4']))\n"
    )
    proc = _run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded, report = proc.stdout.split("\n", 1)
    assert loaded == "[]"
    assert json.loads(report)["verdict"] == "pass"


@pytest.mark.parametrize(
    "imports",
    ["import finharm.cli, scipy.linalg", "import scipy.linalg, finharm.cli"],
    ids=["finharm first", "scipy.linalg first"],
)
def test_scipy_linalg_keeps_its_flapack_in_either_import_order(imports):
    script = (
        f"{imports}\n"
        "import sys, finharm.characters\n"
        "assert scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
        "assert scipy.linalg.lapack.zgees is finharm.characters._ZGEES\n"
    )
    proc = _run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
