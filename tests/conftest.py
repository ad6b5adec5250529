"""Shared fixtures: the verification corpus, a few pinned groups, and a
watcher of the payloads build_report makes."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import finharm.reports
from finharm import CharacterTable, FiniteGroup, character_table, make_named_group
from finharm.formatting import fmt_real
from oracle_helpers import fmt_complex_scalar, json_digest

CORPUS_SPECS: tuple[str, ...] = (
    tuple(f"cyclic:{n}" for n in range(1, 13))
    + tuple(f"dihedral:{n}" for n in range(1, 9))
    + (
        "symmetric:3",
        "symmetric:4",
        "quaternion",
        "heisenberg:3",
        "product:cyclic:2*cyclic:4",
    )
)


@pytest.fixture(scope="session")
def corpus_groups() -> dict[str, FiniteGroup]:
    return {spec: make_named_group(spec) for spec in CORPUS_SPECS}


@pytest.fixture(scope="session")
def corpus_tables(corpus_groups: dict[str, FiniteGroup]) -> dict[str, CharacterTable]:
    return {spec: character_table(G) for spec, G in corpus_groups.items()}


@pytest.fixture(scope="session")
def sweep_specs(corpus_groups: dict[str, FiniteGroup]) -> tuple[str, ...]:
    """The corpus restricted to order <= 24, the exhaustive-sweep domain."""
    return tuple(s for s in CORPUS_SPECS if corpus_groups[s].order <= 24)


@pytest.fixture(scope="session")
def s3(corpus_groups) -> FiniteGroup:
    return corpus_groups["symmetric:3"]


@pytest.fixture(scope="session")
def s3_table(corpus_tables) -> CharacterTable:
    return corpus_tables["symmetric:3"]


@pytest.fixture(scope="session")
def q8(corpus_groups) -> FiniteGroup:
    return corpus_groups["quaternion"]


@pytest.fixture(scope="session")
def q8_table(corpus_tables) -> CharacterTable:
    return corpus_tables["quaternion"]


def _assert_canonical(node, path: str = "payload") -> None:
    """Only str-keyed dicts, lists, str, Python int, bool and None: the
    types on which orjson writes json's digest text."""
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_canonical(value, f"{path}.{key}")
    elif type(node) is list:
        for i, value in enumerate(node):
            _assert_canonical(value, f"{path}[{i}]")
    else:
        assert type(node) in (str, int, bool, type(None)), f"{path}: {type(node).__name__}"


def _assert_summary(payload: dict) -> None:
    """verdict is pass exactly when the run finished and every pass flag of
    the payload holds; max_abs_error is fmt_real of the largest of the
    orthogonality deviation, each check's error and each check's identity
    residual, read back as floats, and nan when one of them is. Exact, since
    %.12g rounds monotonically and fmt_real(float(s)) == s. A report aborted
    before its table has none of these and reads 0."""
    table = payload.get("table")
    checks, probes = payload["checks"], payload["probes"]
    flags = [table["orthogonality"]["pass"]] if table else []
    flags += [check["pass"] for check in checks] + [probe["identity_check"] for probe in probes]
    assert (payload["verdict"] == "pass") == ("error" not in payload and all(flags))
    errors = [table["orthogonality"]["max_deviation"]] if table else []
    errors += [check["max_abs_error"] for check in checks]
    errors += [check["identity"]["max_residual"] for check in checks if "identity" in check]
    values = [float(e) for e in errors]
    worst = math.nan if any(map(math.isnan, values)) else max(values, default=0.0)
    assert payload["max_abs_error"] == fmt_real(worst)


class PayloadWatch:
    """Records, per report built while installed, the complex values of its
    pairs as build_report's spectra and probes held them, its
    fmt_complex_rows calls, and its payload and digest."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.reports: list[tuple] = []
        self._spectra: list[tuple[np.ndarray, np.ndarray]] = []
        self._ratios: list[np.ndarray] = []
        self._calls = 0
        spectra = finharm.reports.subgroup_spectra
        probe = finharm.reports.conjecture_probe
        fmt_rows = finharm.reports.fmt_complex_rows
        digest = finharm.reports._payload_digest

        def recorded_spectra(*args, **kwargs):
            for spectrum in spectra(*args, **kwargs):
                self._spectra.append((spectrum.kernels[:, :, 0].copy(), spectrum.psi_values.copy()))
                yield spectrum

        def recorded_probe(spectrum, plan):
            record = probe(spectrum, plan)
            self._ratios.append(record.first_ratio.copy())
            return record

        def counted_fmt_rows(values):
            self._calls += 1
            return fmt_rows(values)

        def recorded_digest(payload):
            value = digest(payload)
            self.reports.append((payload, value[0], self._spectra, self._ratios, self._calls))
            self._spectra, self._ratios, self._calls = [], [], 0
            return value

        monkeypatch.setattr(finharm.reports, "subgroup_spectra", recorded_spectra)
        monkeypatch.setattr(finharm.reports, "conjecture_probe", recorded_probe)
        monkeypatch.setattr(finharm.reports, "fmt_complex_rows", counted_fmt_rows)
        monkeypatch.setattr(finharm.reports, "_payload_digest", recorded_digest)

    def check(self) -> None:
        """Every report recorded holds only canonical types, its digest is
        json's, its pairs' strings are fmt_complex_scalar of their values,
        and they took one fmt_complex_rows call, or none when it has no
        pairs. Its summary is the fold of its records: see _assert_summary."""
        assert self.reports
        for payload, digest, spectra, ratios, calls in self.reports:
            _assert_canonical(payload)
            assert digest == json_digest(payload)
            _assert_summary(payload)
            command = payload["config"]["command"]
            rows = [pair for kernels, psis in spectra for pair in zip(kernels, psis)]
            assert calls == (1 if rows else 0)
            if command in ("whittaker-check", "sweep"):
                assert len(payload["checks"]) == len(rows)
                for check, (kernel, psi) in zip(payload["checks"], rows):
                    kernel_strings = list(map(fmt_complex_scalar, kernel))
                    assert check["identity"]["kernel_at_identity"] == kernel_strings
                    assert check["psi_on_members"] == list(map(fmt_complex_scalar, psi))
            if command in ("conjecture-probe", "sweep"):
                count = payload["config"]["num_test_functions"]
                first_ratios = [row for block in ratios for row in block]
                assert len(payload["probes"]) == len(rows) == len(first_ratios)
                for probe, (kernel, _), first in zip(payload["probes"], rows, first_ratios):
                    for rec, k, f in zip(probe["per_pi"], kernel, first, strict=True):
                        assert rec["kernel_at_identity"] == fmt_complex_scalar(k)
                        assert rec["first_ratio"] == (
                            None if rec["num_flagged"] == count else fmt_complex_scalar(f)
                        )


@pytest.fixture
def payload_watch(monkeypatch: pytest.MonkeyPatch) -> PayloadWatch:
    return PayloadWatch(monkeypatch)
