"""Report assembly, serialization, digests, and failure delivery."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from finharm.formatting import fmt_complex_rows, fmt_real
from finharm.reports import COMMANDS, RunConfig, SweepReport
from oracle_helpers import fmt_complex_scalar, json_digest

TOP_LEVEL_KEYS = {"config", "group", "table", "checks", "probes", "verdict", "max_abs_error"}


def test_fmt_real():
    assert fmt_real(0.0) == "0"
    assert fmt_real(-0.0) == "0"
    assert fmt_real(1.5) == "1.5"
    assert fmt_real(1e-9) == "1e-09"
    assert fmt_real(2) == "2"


def test_fmt_complex_rows_match_scalar_oracle():
    parts = [0.0, -0.0, 1e-13, -1e-13, -1e-20, 1e16, np.nan, np.inf, -np.inf, 0.5, -2.0]
    values = np.array([[complex(a, b) for b in parts] for a in parts])
    expected = [[fmt_complex_scalar(v) for v in row] for row in values]
    assert [list(row) for row in fmt_complex_rows(values)] == expected
    # both parts always present, and -0 written 0
    examples = np.array([[1 + 0j, -1.0 + 0j, 0.5 - 2j, complex(-0.0, -0.0)]])
    (strings,) = fmt_complex_rows(examples)
    assert list(strings) == [fmt_complex_scalar(v) for v in examples[0]]
    assert strings == ("1+0i", "-1+0i", "0.5-2i", "0+0i")


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
# tokens as json, so its real digest, json_digest's, lets orjson render it
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
    # an orjson case is proven as build_report proves it: its payload is the
    # one whose orjson text gave the digest
    report = SweepReport(
        payload=awkward,
        digest=json_digest(awkward) if real_digest else "0" * 64,
        wall_time=2.5e-05,
        proven_payload=awkward if real_digest and by_orjson else None,
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


# Characters whose text the two writers must agree on: C0 controls, the
# quote and the backslash, which both escape; the slash, which neither does;
# DEL, C1 controls and every character beyond ASCII, which orjson writes raw
# and _ascii escapes, astral ones as surrogate pairs; and lone surrogates,
# which orjson refuses, as it refuses ints beyond 64 bits.
_JSON_CHARS = st.one_of(
    st.integers(0, 0x20).map(chr),
    st.sampled_from('"\\/\x7f'),
    st.integers(0x80, 0x9F).map(chr),
    st.characters(),
)
_LONE_SURROGATES = st.integers(0xD800, 0xDFFF).map(chr)
_INTS_IN_64_BITS = st.one_of(
    st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**63, 2**64 - 1]),
    st.integers(-(2**63), 2**64 - 1),
)
_INTS_BEYOND_64_BITS = st.sampled_from([2**64, -(2**63) - 1, 10**30, -(10**30)])


def _json_payloads(chars, ints):
    """Dicts of the types a report payload holds: str-keyed dicts, lists and
    tuples, str, int, bool and None."""
    text = st.text(chars, max_size=6)
    leaves = st.one_of(st.none(), st.booleans(), ints, text)
    trees = st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=3).map(tuple),
            st.dictionaries(text, kids, max_size=4),
        ),
        max_leaves=24,
    )
    return st.dictionaries(text, trees, max_size=5)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    payload=st.one_of(
        _json_payloads(_JSON_CHARS, _INTS_IN_64_BITS),  # orjson's path
        _json_payloads(  # mostly the fallback
            st.one_of(_JSON_CHARS, _LONE_SURROGATES),
            st.one_of(_INTS_IN_64_BITS, _INTS_BEYOND_64_BITS),
        ),
    )
)
@example(payload={"\u00e9": 1, "z": [], "\U0001f600": {}, "\uffff": (), "Z": "\x7f\x85\u2028"})
@example(payload={"max": [2**64 - 1, -(2**63)], "over": 2**64})
@example(payload={"lone": "\ud800", "pair": "\U0001f600"})
@example(payload={"int keys": {1: "one", 2: None}})
def test_payload_digest_is_json_digest(payload):
    # the digest is computed by orjson and defined by json; an orjson release
    # that escapes or orders differently fails here
    digest, by_orjson = finharm.reports._payload_digest(payload)
    assert digest == json_digest(payload)
    if by_orjson:  # what to_json then takes as proven
        assert hashlib.sha256(finharm.reports._orjson_compact(payload)).hexdigest() == digest


def test_to_json_takes_build_reports_digest_as_proof(monkeypatch):
    # build_report hashed orjson's compact text for the digest, so to_json
    # writes through orjson without a second compact encode
    compact = finharm.reports._orjson_compact
    calls = []

    def counted(payload):
        calls.append(payload)
        return compact(payload)

    monkeypatch.setattr(finharm.reports, "_orjson_compact", counted)
    report = build_report("sweep", RunConfig(group_spec="symmetric:3", num_test_functions=2))
    assert report.proven_payload is report.payload
    text = report.to_json()
    assert len(calls) == 1
    # a report built by hand is not proven: json writes the same bytes,
    # without a second compact encode
    by_hand = SweepReport(payload=report.payload, digest=report.digest, wall_time=report.wall_time)
    assert by_hand.to_json() == text
    assert len(calls) == 1


def test_to_json_proof_does_not_follow_a_replaced_payload():
    # the proof holds for the payload build_report hashed, not for another
    # one put in its place: orjson would write this float as 1e16, json as
    # 1e+16
    report = build_report("chartable", RunConfig(group_spec="symmetric:3"))
    replaced = dataclasses.replace(report, payload=dict(report.payload, extra=1e16))
    doc = dict(replaced.payload, digest=replaced.digest, wall_time=replaced.wall_time)
    assert replaced.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert '"extra": 1e+16' in replaced.to_json()


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
    "field, value",
    [
        ("group_spec", b"cyclic:3"),
        ("group_spec", 3),
        ("subgroup_selector", 5),
        ("subgroup_selector", "1,2"),
        ("subgroup_selector", ""),
        ("tol", None),
    ],
)
def test_runconfig_rejects_wrongly_typed_fields(field, value):
    kwargs = {"group_spec": "cyclic:3", field: value}
    with pytest.raises(ValueError, match=field):
        RunConfig(**kwargs)


def test_index_array_is_a_subgroup_selector():
    # an index array compares with "all" entry by entry; it is read as indices
    cfg = RunConfig(group_spec="symmetric:3", subgroup_selector=np.array([1, 2]))
    assert cfg.subgroup_selector == (1, 2)
    assert cfg == RunConfig(group_spec="symmetric:3", subgroup_selector=(1, 2))


def test_index_array_character_selector_must_be_an_integer():
    with pytest.raises(ValueError, match="character_selector must be an integer"):
        RunConfig(group_spec="symmetric:3", character_selector=np.array([1, 2]))
    cfg = RunConfig(group_spec="symmetric:3", character_selector=np.array(1))
    assert cfg.character_selector == 1


def test_config_block_is_every_runconfig_field():
    cfg = RunConfig(group_spec="cyclic:4", subgroup_selector=(1,), character_selector=1)
    config = build_report("whittaker-check", cfg).payload["config"]
    assert set(config) == {f.name for f in dataclasses.fields(RunConfig)} | {"command"}
    assert config["subgroup_selector"] == [1]
    assert config["tol"] == fmt_real(cfg.tol)


def test_unknown_command_raises():
    with pytest.raises(ValueError, match="bogus"):
        build_report("bogus", RunConfig(group_spec="cyclic:3"))


@pytest.mark.parametrize(
    "field, value, stored",
    [
        ("num_test_functions", np.int64(3), 3),
        ("seed", np.int64(3), 3),
        ("seed", np.uint64(2**64 - 1), 2**64 - 1),
        ("tol", "1e-9", ValueError),
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


@pytest.mark.parametrize(
    "tol", ["1e-9", b"1e-9", 1e-9 + 0j, np.complex64(1e-9)],
    ids=["str", "bytes", "complex", "complex64"],
)
def test_runconfig_refuses_a_tolerance_that_is_not_real(tol):
    # a string is refused as it is by character_table, not parsed
    with pytest.raises(ValueError, match="tol must be a real number"):
        RunConfig(group_spec="symmetric:3", tol=tol)


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
def test_plancherel_verdict_bounds_each_row_by_its_l1_norm(
    monkeypatch, payload_watch, s3, factor, passed
):
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
    payload_watch.check()


def test_nan_inversion_error_fails_and_carries(monkeypatch, payload_watch):
    # the first function's error is NaN; the finite errors after it must not
    # hide it from the check or from the report
    cfg = RunConfig(group_spec="symmetric:3", num_test_functions=5)
    real = finharm.reports.plancherel_invert_at_identity

    def nan_first_row(table, F):
        values = real(table, F).copy()
        values[0] = np.nan
        return values

    monkeypatch.setattr(finharm.reports, "plancherel_invert_at_identity", nan_first_row)
    report = build_report("plancherel-check", cfg)
    (check,) = report.payload["checks"]
    assert check["pass"] is False
    assert check["max_abs_error"] == "nan"
    assert report.payload["max_abs_error"] == "nan"
    assert report.passed is False
    payload_watch.check()


def test_nan_pair_error_fails_and_carries(monkeypatch, payload_watch):
    # one NaN error in the run's first pair; the pairs after it are finite
    real = finharm.reports.generalized_plancherel_check_batch
    calls = []

    def nan_once(spectrum, F):
        rec = real(spectrum, F)
        if calls:
            return rec
        calls.append(1)
        abs_error = rec.abs_error.copy()
        abs_error[0, 0] = np.nan
        return dataclasses.replace(rec, abs_error=abs_error)

    monkeypatch.setattr(finharm.reports, "generalized_plancherel_check_batch", nan_once)
    report = build_report("whittaker-check", RunConfig(group_spec="symmetric:3"))
    checks = report.payload["checks"]
    assert len(checks) > 1
    assert checks[0]["pass"] is False and checks[0]["max_abs_error"] == "nan"
    assert all(c["pass"] for c in checks[1:])
    assert report.payload["max_abs_error"] == "nan"
    assert report.passed is False
    payload_watch.check()


@pytest.mark.parametrize("command", ["whittaker-check", "conjecture-probe", "sweep"])
def test_failed_identity_check_fails_the_report(monkeypatch, payload_watch, command):
    # the first pair of each block fails its kernel identity check
    real = finharm.reports.kernel_multiplicity_identity_check

    def first_fails(spectrum, tol):
        ok = real(spectrum, tol).copy()
        ok[0] = False
        return ok

    monkeypatch.setattr(finharm.reports, "kernel_multiplicity_identity_check", first_fails)
    report = build_report(command, RunConfig(group_spec="symmetric:3", num_test_functions=2))
    checks, probes = report.payload["checks"], report.payload["probes"]
    assert all(check["identity"]["pass"] is check["pass"] is False for check in checks[:1])
    assert all(probe["identity_check"] is False for probe in probes[:1])
    assert report.passed is False
    payload_watch.check()


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_pair_verdict_bounds_each_error_by_its_l1_norm(
    monkeypatch, payload_watch, s3, factor, passed
):
    # every error of the first pair lies above tol; that of its last function
    # is `factor` times its bound
    cfg = RunConfig(group_spec="symmetric:3", num_test_functions=5)
    bound = cfg.tol * (1.0 + np.abs(draw_test_functions(s3, cfg.seed, range(5))).sum(axis=1))
    shift = np.where(np.arange(5) == 4, factor, 0.5) * bound
    assert (shift > 2 * cfg.tol).all()
    real = finharm.reports.generalized_plancherel_check_batch

    def shifted(spectrum, F):
        rec = real(spectrum, F)
        abs_error = rec.abs_error.copy()
        abs_error[0] = shift
        return dataclasses.replace(rec, abs_error=abs_error)

    monkeypatch.setattr(finharm.reports, "generalized_plancherel_check_batch", shifted)
    report = build_report("whittaker-check", cfg)
    assert report.payload["checks"][0]["pass"] is passed
    assert report.passed is passed
    payload_watch.check()


def _plancherel_peak(count):
    config = RunConfig(group_spec="dihedral:64", num_test_functions=count)
    tracemalloc.start()
    try:
        build_report("plancherel-check", config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_plancherel_memory_does_not_grow_with_count():
    # all 8000 functions of dihedral:64 at once would take 16 MB; a first
    # report pays orjson's import, so both peaks are taken after one
    build_report("plancherel-check", RunConfig(group_spec="dihedral:64", num_test_functions=1))
    assert _plancherel_peak(8000) - _plancherel_peak(600) < 2 * 2**20


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


@pytest.mark.parametrize("command", list(COMMANDS))
def test_csv_row_sections_start_with_their_header(capsys, command):
    # each row of # checks and # probes has as many cells as the header line
    # under its section's name
    assert main([command, "symmetric:3", "--count", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for at, line in enumerate(lines):
        if line in ("# checks", "# probes"):
            header = lines[at + 1].split(",")
            assert all(cell.isidentifier() for cell in header), lines[at + 1]
            rows = list(itertools.takewhile(lambda ln: not ln.startswith("# "), lines[at + 2 :]))
            assert rows and all(len(row.split(",")) == len(header) for row in rows)


def _assert_aborted(err, cause: type[Exception]) -> None:
    """The tail every aborted run shares: a failed, incomplete report,
    digested like a complete one, raised from the original error."""
    report = err.value.report
    assert report.passed is False
    assert report.payload["verdict"] == "fail"
    assert report.payload["incomplete"] is True
    assert report.payload["error"] == str(err.value)
    assert report.digest == json_digest(report.payload)
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
    monkeypatch, capsys, tmp_path, payload_watch,
    block, spec, count, seed, pairs, max_abs_error, error, digest,
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
    payload_watch.check()
