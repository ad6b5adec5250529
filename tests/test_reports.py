"""Report assembly, serialization, digests, and failure delivery."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finharm.induction
import finharm.reports
from finharm import (
    IndexOutOfRange,
    NonIntegralMultiplicity,
    OrderTooLarge,
    ParseError,
    SweepAborted,
    build_report,
)
from finharm.cli import main
from finharm import test_functions as draw_test_functions
from finharm.formatting import fmt_complex, fmt_complex_rows, fmt_real
from finharm.reports import RunConfig, SweepReport
from oracle_helpers import fmt_complex_scalar

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


def test_fmt_complex_rows_match_scalar_oracle():
    parts = [0.0, -0.0, 1e-13, -1e-13, -1e-20, 1e16, np.nan, np.inf, -np.inf, 0.5, -2.0]
    values = np.array([[complex(a, b) for b in parts] for a in parts])
    expected = [[fmt_complex_scalar(v) for v in row] for row in values]
    assert [list(row) for row in fmt_complex_rows(values)] == expected
    assert [[fmt_complex(v) for v in row] for row in values] == expected


def _nextafter_run(x: float, count: int) -> list[float]:
    """x and its count nearest floats on either side, ascending."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


# Half-way points between 12-digit decimals, where %.12g switches strings
# within a few ulps (1.000000000005, 99999999999.95, 100000000000.5, which is
# exact and ties to even, 9.999999999995e-5, 0.9999999999995), nearby points
# one digit further out, and values near the ends of the float range.
_RUN_CENTRES = (
    1.0000000000005,
    1.000000000005,
    99999999999.95,
    100000000000.5,
    9.99999999999995e-5,
    9.999999999995e-5,
    0.9999999999995,
    1e300,
    1e-300,
    1e308,
    2.2250738585072014e-308,
    1e-320,
)
_RUNS = [_nextafter_run(sign * x, 40) for x in _RUN_CENTRES for sign in (1.0, -1.0)]
_SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_fmt_complex_rows_runs_match_scalar_oracle(data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    pool = list(data.draw(st.lists(st.sampled_from(_SPECIALS), max_size=4)))
    for _ in range(data.draw(st.integers(1, 4))):
        run = data.draw(st.sampled_from(_RUNS))
        start = data.draw(st.integers(0, len(run) - 1))
        pool += run[start:start + data.draw(st.integers(1, len(run)))]
    size = 2 * rows * cols
    parts = np.array(data.draw(st.permutations((pool * size)[:size]))).reshape(2, rows, cols)
    values = np.empty((rows, cols), dtype=np.complex128)
    values.real, values.imag = parts
    expected = tuple(tuple(fmt_complex_scalar(v) for v in row) for row in values.tolist())
    assert fmt_complex_rows(values) == expected


# json.dumps(indent=2) edge cases: empty containers at several depths, tuples,
# every scalar kind, non-finite floats, and strings that need escaping
_AWKWARD_DOC = {
    "empty": [[], {}, [[]], {"inner": {}}],
    "scalars": [None, True, False, 0, -7, 10**30, -0.0, 0.1, 1e-300],
    "non_finite": {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
    "strings": [
        "caf\u00e9 \u2603 \u65e5\u672c", 'quote " and \\ backslash', "\x00\x1f\n\t\r\x7f", ""
    ],
    "nested": {"tuple": (1, "two", (3.5,)), "deep": [1, [2, {"k\u00e9y": [None, {"z": []}]}]]},
    "\u00fcn\u00efcode key": {"a": None, "b": [True]},
}


# _AWKWARD_DOC less its floats and its int beyond 64 bits, plus the 64-bit
# extremes, a character beyond U+FFFF and a C1 control: orjson writes the same
# tokens as json, so its real digest lets orjson render it
_AWKWARD_64_BIT_DOC = {
    "empty": [[], {}, [[]], {"inner": {}}],
    "scalars": [None, True, False, 0, -7, 2**64 - 1, -(2**63)],
    "strings": [
        "caf\u00e9 \u2603 \U0001f600 \u0085", 'quote " and \\ backslash', "\x00\x1f\n\t\r\x7f", ""
    ],
    "nested": {"tuple": (1, "two", (3,)), "deep": [1, [2, {"k\u00e9y": [None, {"z": []}]}]]},
    "\u00fcn\u00efcode key": {"a": None, "b": [True]},
}


# each document, and whether orjson renders it when its digest is real
_RENDERINGS = [
    (_AWKWARD_DOC, False),  # orjson refuses 10**30
    ({"floats": [-0.0, 0.1, 1e-300, 1e16, float("nan")]}, False),  # orjson writes 1e16, null
    (_AWKWARD_64_BIT_DOC, True),
    ({"ascii": "DEL \x7f"}, True),
]


@pytest.mark.parametrize(
    "awkward, by_orjson", _RENDERINGS, ids=["awkward", "floats", "64-bit", "DEL"]
)
@pytest.mark.parametrize("real_digest", [False, True], ids=["wrong digest", "real digest"])
def test_to_json_matches_json_dumps_byte_for_byte(monkeypatch, awkward, by_orjson, real_digest):
    report = SweepReport(
        config=RunConfig(group_spec="cyclic:1"),
        payload=awkward,
        digest=finharm.reports._payload_digest(awkward) if real_digest else "0" * 64,
        passed=True,
        wall_time=2.5e-05,
    )
    doc = dict(awkward, digest=report.digest, wall_time=report.wall_time)
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if real_digest and by_orjson:
        # orjson's path: json may write no indented text
        dumps = json.dumps

        def compact_only(obj, **kwargs):
            assert "indent" not in kwargs
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", compact_only)
    assert report.to_json() == expected


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


@pytest.mark.parametrize(
    "field, value, stored",
    [
        ("num_test_functions", np.int64(3), 3),
        ("seed", np.int64(3), 3),
        ("seed", np.uint64(2**64 - 1), 2**64 - 1),
        ("tol", "1e-9", 1e-9),
        ("tol", np.float32(1e-7), float(np.float32(1e-7))),
        ("character_selector", np.int64(1), 1),
        ("num_test_functions", 2.5, ValueError),
        ("num_test_functions", 3.0, ValueError),
        ("seed", 1.5, ValueError),
        ("seed", "3", ValueError),
        ("tol", "tight", ValueError),
        ("character_selector", 1.7, ValueError),
        ("subgroup_selector", [1.9], ValueError),
    ],
)
def test_runconfig_stores_what_it_validated(field, value, stored):
    if stored is ValueError:
        with pytest.raises(ValueError):
            RunConfig(group_spec="cyclic:2", **{field: value})
        return
    cfg = RunConfig(group_spec="cyclic:2", **{field: value})
    assert getattr(cfg, field) == stored
    assert type(getattr(cfg, field)) is type(stored)
    config = build_report("plancherel-check", cfg).payload["config"]
    assert config[field] == (fmt_real(stored) if field == "tol" else stored)


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


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_plancherel_verdict_bounds_each_row_by_its_l1_norm(monkeypatch, s3, factor, passed):
    # every error lies above tol; the last row's is `factor` times its bound
    cfg = RunConfig(group_spec="symmetric:3", num_test_functions=5)
    bound = cfg.tol * (1.0 + np.abs(draw_test_functions(s3, cfg.seed, range(5))).sum(axis=1))
    shift = np.where(np.arange(5) == 4, factor, 0.5) * bound
    assert (shift > 2 * cfg.tol).all()
    monkeypatch.setattr(
        finharm.reports, "plancherel_invert_at_identity", lambda table, F: F[:, 0] - shift
    )
    report = build_report("plancherel-check", cfg)
    assert report.payload["checks"][0]["pass"] is passed
    assert report.passed is passed


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


def _assert_aborted(err, cause: type[Exception]) -> None:
    """The tail every aborted run shares: a failed, incomplete report,
    digested like a complete one, raised from the original error."""
    report = err.value.report
    assert report.passed is False
    assert report.payload["verdict"] == "fail"
    assert report.payload["incomplete"] is True
    assert report.payload["error"] == str(err.value)
    assert report.digest == finharm.reports._payload_digest(report.payload)
    assert isinstance(err.value.__cause__, cause)


def test_report_table_csv_is_the_tables_own(corpus_tables):
    # the # table section and the text table_digest hashes are one writer's
    for spec, table in corpus_tables.items():
        report = build_report("chartable", RunConfig(group_spec=spec, output_format="csv"))
        lines = report.to_csv().split("\n")
        start = lines.index("# table") + 1
        section = lines[start : start + 1 + table.num_irreps]
        assert "\n".join(section) + "\n" == table.to_csv(), spec
        assert lines[start + 1 + table.num_irreps] == "# verdict"
        text = table.to_csv().encode()
        assert report.payload["group"]["table_digest"] == hashlib.sha256(text).hexdigest(), spec


def test_sweep_cap_aborts_with_partial_report():
    with pytest.raises(SweepAborted) as err:
        build_report("sweep", RunConfig(group_spec="cyclic:201"))
    _assert_aborted(err, OrderTooLarge)
    assert "table" in err.value.report.payload


def test_bad_psi_index_aborts():
    cfg = RunConfig(group_spec="cyclic:2", character_selector=99)
    with pytest.raises(SweepAborted) as err:
        build_report("whittaker-check", cfg)
    _assert_aborted(err, IndexOutOfRange)
    assert "psi index" in str(err.value)


def test_parse_failure_aborts_with_config_only_payload():
    with pytest.raises(SweepAborted) as err:
        build_report("chartable", RunConfig(group_spec="nonsense:1"))
    _assert_aborted(err, ParseError)
    assert "group" not in err.value.report.payload


def _third_psi_not_multiplicative(monkeypatch):
    """Hand every subgroup with three or more linear characters a third one
    of unit modulus, 1 at the identity, that is not a homomorphism."""
    real = finharm.reports.linear_characters

    def patched(U):
        psis = real(U)
        if len(psis) >= 3:
            psis = psis.copy()
            psis[2] = psis[0]
            psis[2, 1] = -psis[2, 1]
        return psis

    monkeypatch.setattr(finharm.reports, "linear_characters", patched)


# Recorded before the characters of a subgroup shared one spectrum, when each
# pair ran alone: the partial report holds every pair before the failing one,
# including the first two characters of its own subgroup.
MID_SUBGROUP_ABORTS = [
    ("dihedral:4", 3, 1, 13, "6.83897383169e-14",
     "Frobenius inner product = (0.500000000000001+0j) does not round to a nonnegative integer",
     "b3a159a6c4226700f5d71362c0de5007ae9e516206a029dff1d834adc62dea25"),
    ("cyclic:6", 2, 0, 5, "6.2172489379e-15",
     "Frobenius inner product = (0.33333333333333387-1.252541866889838e-16j) "
     "does not round to a nonnegative integer",
     "b1ce6bf5834bf7c05e581ee62e97c37713dc918c8eb7f1f15bc508c722fdbb5e"),
]


@pytest.mark.parametrize("block", ["default", "one psi"])
@pytest.mark.parametrize(
    "spec, count, seed, pairs, max_abs_error, error, digest", MID_SUBGROUP_ABORTS
)
def test_mid_subgroup_abort_keeps_the_pairs_before_it(
    monkeypatch, capsys, tmp_path, block, spec, count, seed, pairs, max_abs_error, error, digest
):
    _third_psi_not_multiplicative(monkeypatch)
    if block == "one psi":
        monkeypatch.setattr(finharm.induction, "_SPECTRUM_BYTES", 0)
    with pytest.raises(SweepAborted) as err:
        build_report("sweep", RunConfig(group_spec=spec, num_test_functions=count, seed=seed))
    report = err.value.report
    _assert_aborted(err, NonIntegralMultiplicity)
    assert report.payload["error"] == error
    assert report.payload["max_abs_error"] == max_abs_error
    assert len(report.payload["checks"]) == len(report.payload["probes"]) == pairs
    assert report.payload["checks"][-1]["psi_index"] == 1
    assert report.digest == digest
    out = tmp_path / "report"
    argv = ["sweep", spec, "--count", str(count), "--seed", str(seed)]
    assert main(argv + ["--out", str(out)]) == 2
    capsys.readouterr()
    assert json.loads(out.read_text())["digest"] == digest
