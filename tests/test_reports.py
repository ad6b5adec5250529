"""Report assembly, serialization, digests, and failure delivery."""

from __future__ import annotations

import json

import pytest

from finharm import IndexOutOfRange, SweepAborted, build_report
from finharm.formatting import fmt_complex, fmt_real
from finharm.reports import RunConfig

TOP_LEVEL_KEYS = {"config", "group", "table", "checks", "probes", "verdict", "max_abs_error"}


def test_fmt_real():
    assert fmt_real(0.0) == "0"
    assert fmt_real(-0.0) == "0"
    assert fmt_real(1.5) == "1.5"
    assert fmt_real(1e-9) == "1e-09"
    assert fmt_real(2) == "2"


def test_fmt_complex():
    assert fmt_complex(1 + 0j) == "1+0i"
    assert fmt_complex(-1.0 + 0j) == "-1+0i"
    assert fmt_complex(0.5 - 2j) == "0.5-2i"
    assert fmt_complex(complex(-0.0, -0.0)) == "0+0i"


def test_parse_group_spec_roundtrip():
    report = build_report("chartable", RunConfig(group_spec="dihedral:3"))
    assert report.payload["group"]["order"] == 6


def test_runconfig_validation():
    RunConfig(group_spec="cyclic:2")  # defaults are valid
    with pytest.raises(ValueError):
        RunConfig(group_spec="")
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", num_test_functions=0)
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", tol=0.5)
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", tol=1e-13)
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", seed=-1)
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", output_format="yaml")
    with pytest.raises(ValueError):
        RunConfig(group_spec="cyclic:2", character_selector=-2)
    cfg = RunConfig(group_spec="cyclic:2", subgroup_selector=[1])
    assert cfg.subgroup_selector == (1,)


def test_chartable_report_payload(s3):
    report = build_report("chartable", RunConfig(group_spec="symmetric:3"))
    p = report.payload
    assert set(p) == TOP_LEVEL_KEYS
    assert p["verdict"] == "pass"
    assert report.passed
    assert p["checks"] == [] and p["probes"] == []
    assert p["config"]["command"] == "chartable"
    assert "output_path" not in p["config"]
    assert p["group"]["order"] == 6
    assert p["group"]["num_classes"] == 3
    assert p["group"]["class_sizes"] == [1, 2, 3]
    assert p["group"]["class_reps"] == [0, 3, 1]
    assert len(p["group"]["table_digest"]) == 64
    assert p["table"]["degrees"] == [1, 1, 2]
    assert p["table"]["rows"][0] == ["1+0i", "1+0i", "1+0i"]
    assert p["table"]["orthogonality"]["pass"] is True
    assert len(report.digest) == 64
    assert report.wall_time >= 0.0


def test_plancherel_report(s3):
    report = build_report(
        "plancherel-check", RunConfig(group_spec="symmetric:3", num_test_functions=50)
    )
    assert report.passed
    blk = report.payload["checks"][0]
    assert blk["kind"] == "plancherel-inversion"
    assert blk["num_functions"] == 50
    assert blk["pass"] is True
    assert float(blk["max_abs_error"]) < 1e-9


def test_whittaker_report_single_pair(s3):
    cfg = RunConfig(
        group_spec="symmetric:3", subgroup_selector=(1,), character_selector=1
    )
    report = build_report("whittaker-check", cfg)
    assert report.passed
    checks = report.payload["checks"]
    assert len(checks) == 1
    blk = checks[0]
    assert blk["subgroup"]["members"] == [0, 1]
    assert blk["psi_index"] == 1
    assert blk["psi_on_members"] == ["1+0i", "-1+0i"]
    assert blk["identity"]["kernel_at_identity"] == ["0+0i", "2+0i", "2+0i"]
    assert blk["identity"]["multiplicities"] == [0, 1, 1]
    assert blk["identity"]["conjugate_multiplicities"] == [0, 1, 1]
    assert blk["pass"] is True


def test_sweep_counts_every_pair(s3):
    report = build_report("sweep", RunConfig(group_spec="symmetric:3", num_test_functions=5))
    assert report.passed
    assert len(report.payload["checks"]) == 12
    assert len(report.payload["probes"]) == 12
    assert report.payload["verdict"] == "pass"


def test_sweep_blocks_match_single_commands(s3):
    # the sweep's one pass emits exactly what the two narrower commands emit
    cfg = RunConfig(group_spec="symmetric:3", num_test_functions=3)
    sweep = build_report("sweep", cfg).payload
    assert sweep["checks"] == build_report("whittaker-check", cfg).payload["checks"]
    assert sweep["probes"] == build_report("conjecture-probe", cfg).payload["probes"]


def test_probe_report_fields(q8):
    cfg = RunConfig(
        group_spec="quaternion",
        subgroup_selector=(1,),
        character_selector=1,
        num_test_functions=4,
    )
    report = build_report("conjecture-probe", cfg)
    assert report.passed
    probes = report.payload["probes"]
    assert len(probes) == 1
    blk = probes[0]
    assert blk["subgroup"]["members"] == [0, 1]
    assert blk["identity_check"] is True
    rec = blk["per_pi"][4]
    assert rec["degree"] == 2
    assert rec["multiplicity"] == 2
    assert rec["kernel_at_identity"] == "4+0i"
    assert rec["num_flagged"] == 0
    assert rec["first_ratio"] is not None


def test_sweep_determinism(s3):
    cfg = RunConfig(group_spec="symmetric:3", seed=7, num_test_functions=5)
    a = build_report("sweep", cfg)
    b = build_report("sweep", cfg)
    assert a.digest == b.digest
    assert a.payload == b.payload
    # only wall_time may differ between the rendered documents
    da = json.loads(a.to_json())
    db = json.loads(b.to_json())
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


def test_seed_changes_digest(s3):
    a = build_report("sweep", RunConfig(group_spec="symmetric:3", seed=1, num_test_functions=3))
    b = build_report("sweep", RunConfig(group_spec="symmetric:3", seed=2, num_test_functions=3))
    assert a.digest != b.digest


def test_json_document_shape(s3):
    report = build_report("chartable", RunConfig(group_spec="cyclic:4"))
    doc = json.loads(report.to_json())
    assert doc["digest"] == report.digest
    assert set(doc) == TOP_LEVEL_KEYS | {"digest", "wall_time"}


def test_csv_rendering(s3):
    cfg = RunConfig(
        group_spec="symmetric:3",
        subgroup_selector=(1,),
        character_selector=1,
        num_test_functions=3,
        output_format="csv",
    )
    report = build_report("sweep", cfg)
    text = report.rendered()
    lines = text.strip().split("\n")
    assert "# config" in lines
    assert "# table" in lines
    assert "# checks" in lines
    assert "# probes" in lines
    assert "verdict,pass" in lines
    assert f"digest,{report.digest}" in lines
    # class size list must not smuggle commas into a cell
    group_lines = [ln for ln in lines if ln.startswith("class_sizes,")]
    assert group_lines == ["class_sizes,1;2;3"]


def test_sweep_cap_aborts_with_partial_report():
    with pytest.raises(SweepAborted) as err:
        build_report("sweep", RunConfig(group_spec="cyclic:201"))
    report = err.value.report
    assert report is not None
    assert not report.passed
    assert report.payload["incomplete"] is True
    assert report.payload["verdict"] == "fail"
    assert "error" in report.payload
    assert len(report.digest) == 64


def test_bad_psi_index_aborts():
    cfg = RunConfig(group_spec="cyclic:2", character_selector=99)
    with pytest.raises(SweepAborted) as err:
        build_report("whittaker-check", cfg)
    assert isinstance(err.value.__cause__, IndexOutOfRange)
    assert "psi index" in str(err.value)


def test_parse_failure_aborts_with_config_only_payload():
    with pytest.raises(SweepAborted) as err:
        build_report("chartable", RunConfig(group_spec="nonsense:1"))
    payload = err.value.report.payload
    assert payload["incomplete"] is True
    assert "group" not in payload
