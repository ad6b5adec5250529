"""Run configuration, report assembly, and serialization.

A report is a plain JSON-serializable dict with top-level keys config, group,
table, checks, probes, verdict, max_abs_error, plus a digest over exactly
those keys and a wall_time field outside the digest. All floats are
serialized through the 12-significant-digit formatter, so identical
configurations produce byte-identical digest-bearing sections on every
platform.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .characters import (
    CharacterTable,
    LinearCharacter,
    character_table,
    linear_characters,
    verify_orthogonality,
)
from .errors import FinharmError, IndexOutOfRange, OrderTooLarge, SweepAborted
from .formatting import fmt_complex, fmt_real
from .groups import FiniteGroup, Subgroup, enumerate_subgroups, make_named_group, subgroup_closure
from .harmonic import plancherel_invert_at_identity, generalized_plancherel_check_batch
from .induction import (
    PairSpectrum,
    conjecture_probe,
    kernel_multiplicity_identity_check,
    pair_spectrum,
)
from .sampling import random_test_functions

SWEEP_ORDER_CAP = 200


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run."""

    group_spec: str
    subgroup_selector: str | tuple[int, ...] = "all"
    character_selector: str | int = "all"
    num_test_functions: int = 20
    seed: int = 0
    tol: float = 1e-9
    output_format: str = "json"
    output_path: str = "-"

    def __post_init__(self) -> None:
        if not self.group_spec:
            raise ValueError("group_spec must be nonempty")
        if self.subgroup_selector != "all":
            object.__setattr__(
                self, "subgroup_selector", tuple(int(g) for g in self.subgroup_selector)
            )
        if self.character_selector != "all":
            k = int(self.character_selector)
            if k < 0:
                raise ValueError("character_selector index must be nonnegative")
            object.__setattr__(self, "character_selector", k)
        if not 1 <= int(self.num_test_functions) <= 10**4:
            raise ValueError("num_test_functions must lie in [1, 10^4]")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 1e-12 <= float(self.tol) <= 1e-6:
            raise ValueError("tol must lie in [1e-12, 1e-6]")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")


@dataclass(frozen=True)
class SweepReport:
    """Assembled report plus its digest and timing."""

    command: str
    config: RunConfig
    payload: dict[str, Any]
    digest: str
    passed: bool
    max_abs_error: float
    wall_time: float

    def to_json(self) -> str:
        doc = dict(self.payload)
        doc["digest"] = self.digest
        doc["wall_time"] = self.wall_time
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        p = self.payload
        lines: list[str] = ["# config"]
        for key in sorted(p["config"]):
            lines.append(f"{key},{_csv_scalar(p['config'][key])}")
        if "group" in p:
            lines.append("# group")
            for key in sorted(p["group"]):
                lines.append(f"{key},{_csv_scalar(p['group'][key])}")
        if "table" in p:
            tbl = p["table"]
            lines.append("# table")
            lines.append(
                "degree," + ",".join(f"class{k}" for k in range(len(tbl["rows"][0])))
            )
            for degree, row in zip(tbl["degrees"], tbl["rows"]):
                lines.append(f"{degree}," + ",".join(row))
        if p.get("checks"):
            lines.append("# checks")
            if any("subgroup" in blk for blk in p["checks"]):
                lines.append(
                    "subgroup,psi_index,num_functions,max_abs_error,identity_max_residual,pass"
                )
            for blk in p["checks"]:
                if "subgroup" in blk:
                    lines.append(
                        ",".join(
                            [
                                _csv_scalar(blk["subgroup"]["members"]),
                                str(blk["psi_index"]),
                                str(blk["num_functions"]),
                                blk["max_abs_error"],
                                blk["identity"]["max_residual"],
                                _csv_scalar(blk["pass"]),
                            ]
                        )
                    )
                else:
                    lines.append(
                        ",".join(
                            [
                                blk["kind"],
                                str(blk["num_functions"]),
                                blk["max_abs_error"],
                                _csv_scalar(blk["pass"]),
                            ]
                        )
                    )
        if p.get("probes"):
            lines.append("# probes")
            lines.append(
                "subgroup,psi_index,pi,degree,multiplicity,conjugate_multiplicity,"
                "kernel_at_identity,ratio_constant,num_flagged"
            )
            for blk in p["probes"]:
                for rec in blk["per_pi"]:
                    lines.append(
                        ",".join(
                            [
                                _csv_scalar(blk["subgroup"]["members"]),
                                str(blk["psi_index"]),
                                str(rec["pi"]),
                                str(rec["degree"]),
                                str(rec["multiplicity"]),
                                str(rec["conjugate_multiplicity"]),
                                rec["kernel_at_identity"],
                                _csv_scalar(rec["ratio_constant"]),
                                str(rec["num_flagged"]),
                            ]
                        )
                    )
        lines.append("# verdict")
        lines.append(f"verdict,{p['verdict']}")
        lines.append(f"max_abs_error,{p['max_abs_error']}")
        if "error" in p:
            lines.append(f"error,{_csv_scalar(p['error'])}")
            lines.append("incomplete,true")
        lines.append(f"digest,{self.digest}")
        return "\n".join(lines) + "\n"

    def rendered(self) -> str:
        return self.to_csv() if self.config.output_format == "csv" else self.to_json()


def _csv_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    text = str(value)
    return text.replace(",", ";")


def _config_block(command: str, config: RunConfig) -> dict[str, Any]:
    selector: Any = config.subgroup_selector
    if selector != "all":
        selector = list(selector)
    return {
        "command": command,
        "group_spec": config.group_spec,
        "subgroup_selector": selector,
        "character_selector": config.character_selector,
        "num_test_functions": config.num_test_functions,
        "seed": config.seed,
        "tol": fmt_real(config.tol),
        "output_format": config.output_format,
        # output_path is delivery detail, deliberately outside the digest
    }


def _group_block(config: RunConfig, G: FiniteGroup, table: CharacterTable) -> dict[str, Any]:
    return {
        "spec": config.group_spec,
        "label": G.label,
        "order": G.order,
        "num_classes": len(G.classes),
        "class_sizes": [int(s) for s in G.class_sizes],
        "class_reps": [int(rep) for rep in G.class_reps],
        "table_digest": hashlib.sha256(table.to_csv().encode()).hexdigest(),
    }


def _table_block(table: CharacterTable, orth) -> dict[str, Any]:
    return {
        "num_irreps": table.num_irreps,
        "degrees": list(table.degrees),
        "plancherel_weights": [fmt_real(w) for w in table.plancherel_weights],
        "rows": [[fmt_complex(v) for v in row] for row in table.values],
        "orthogonality": {
            "max_row_deviation": fmt_real(orth.max_row_deviation),
            "max_column_deviation": fmt_real(orth.max_column_deviation),
            "max_deviation": fmt_real(orth.max_deviation),
            "pass": orth.passed,
        },
    }


def _subgroup_block(U: Subgroup) -> dict[str, Any]:
    return {
        "members": [int(m) for m in U.members],
        "order": U.order,
        "num_cosets": U.num_cosets,
    }


def _iter_pairs(
    G: FiniteGroup, config: RunConfig
) -> Iterator[tuple[Subgroup, int, LinearCharacter]]:
    if config.subgroup_selector == "all":
        subgroups = enumerate_subgroups(G)
    else:
        subgroups = [subgroup_closure(G, config.subgroup_selector)]
    for U in subgroups:
        psis = linear_characters(U)
        if config.character_selector == "all":
            indices: Sequence[int] = range(len(psis))
        else:
            k = int(config.character_selector)
            if k >= len(psis):
                raise IndexOutOfRange(
                    f"psi index {k} out of range: subgroup of order {U.order} "
                    f"has {len(psis)} linear characters"
                )
            indices = [k]
        for j in indices:
            yield U, j, psis[j]


def _identity_block(spectrum: PairSpectrum, passed: bool) -> dict[str, Any]:
    return {
        "max_residual": fmt_real(max(spectrum.residuals)),
        "pass": passed,
        "kernel_at_identity": [fmt_complex(v) for v in spectrum.kernels[:, 0]],
        "multiplicities": list(spectrum.multiplicities),
        "conjugate_multiplicities": list(spectrum.conjugate_multiplicities),
    }


def _probe_per_pi(spectrum: PairSpectrum, config: RunConfig) -> list[dict[str, Any]]:
    probe = conjecture_probe(spectrum, config.num_test_functions, config.seed)
    per_pi = []
    for pi, rec in enumerate(probe):
        clean = [
            rv for rv, flagged in zip(rec.ratio_samples, rec.theta_zero_flags) if not flagged
        ]
        spread = max(abs(rv - clean[0]) for rv in clean) if clean else float("nan")
        per_pi.append(
            {
                "pi": pi,
                "degree": spectrum.table.degrees[pi],
                "multiplicity": spectrum.multiplicities[pi],
                "conjugate_multiplicity": spectrum.conjugate_multiplicities[pi],
                "kernel_at_identity": fmt_complex(spectrum.kernels[pi, 0]),
                "ratio_constant": rec.ratio_constant,
                "num_flagged": sum(rec.theta_zero_flags),
                "first_ratio": fmt_complex(clean[0]) if clean else None,
                "max_ratio_spread": fmt_real(spread),
            }
        )
    return per_pi


def build_report(command: str, config: RunConfig) -> SweepReport:
    """Assemble the report for one CLI command.

    On any package error the partially assembled payload is flagged
    incomplete and carried inside the raised SweepAborted, so the CLI can
    still deliver it alongside a nonzero exit code.
    """
    start = time.perf_counter()
    checks: list[dict[str, Any]] = []
    probes: list[dict[str, Any]] = []
    payload: dict[str, Any] = {
        "config": _config_block(command, config),
        "checks": checks,
        "probes": probes,
    }
    worst = 0.0
    all_pass = True
    try:
        G = make_named_group(config.group_spec)
        table = character_table(G, seed=config.seed, tol=config.tol)
        orth = verify_orthogonality(table, config.tol)
        payload["group"] = _group_block(config, G, table)
        payload["table"] = _table_block(table, orth)
        worst = max(worst, orth.max_deviation)
        all_pass = all_pass and orth.passed

        if command == "plancherel-check":
            fs = random_test_functions(G, config.num_test_functions, config.seed)
            errors = [
                abs(f.values[0] - plancherel_invert_at_identity(table, f)) for f in fs
            ]
            ok = all(
                err <= config.tol * (1.0 + f.l1_norm) for err, f in zip(errors, fs)
            )
            checks.append(
                {
                    "kind": "plancherel-inversion",
                    "num_functions": config.num_test_functions,
                    "max_abs_error": fmt_real(max(errors)),
                    "pass": ok,
                }
            )
            worst = max(worst, max(errors))
            all_pass = all_pass and ok

        if command in ("whittaker-check", "conjecture-probe", "sweep"):
            if G.order > SWEEP_ORDER_CAP:
                raise OrderTooLarge(
                    f"sweeps are capped at group order {SWEEP_ORDER_CAP}, got {G.order}"
                )
            with_checks = command != "conjecture-probe"
            with_probes = command != "whittaker-check"
            if with_checks:
                fs = random_test_functions(G, config.num_test_functions, config.seed)
            # one pass: each pair's spectrum feeds both its check and its probe
            for U, j, psi in _iter_pairs(G, config):
                spectrum = pair_spectrum(table, U, psi)
                identity_ok = kernel_multiplicity_identity_check(spectrum, config.tol)
                if with_checks:
                    records = generalized_plancherel_check_batch(spectrum, fs)
                    theorem_ok = all(
                        rec.abs_error <= config.tol * (1.0 + rec.f_l1) for rec in records
                    )
                    max_err = max(rec.abs_error for rec in records)
                    block_pass = bool(theorem_ok and identity_ok)
                    checks.append(
                        {
                            "subgroup": _subgroup_block(U),
                            "psi_index": j,
                            "psi_on_members": [fmt_complex(v) for v in psi.member_values],
                            "num_functions": config.num_test_functions,
                            "max_abs_error": fmt_real(max_err),
                            "identity": _identity_block(spectrum, identity_ok),
                            "pass": block_pass,
                        }
                    )
                    worst = max(worst, max_err, max(spectrum.residuals))
                    all_pass = all_pass and block_pass
                if with_probes:
                    probes.append(
                        {
                            "subgroup": _subgroup_block(U),
                            "psi_index": j,
                            "identity_check": identity_ok,
                            "per_pi": _probe_per_pi(spectrum, config),
                        }
                    )
                    all_pass = all_pass and identity_ok
    except FinharmError as exc:
        payload["incomplete"] = True
        payload["error"] = str(exc)
        payload["verdict"] = "fail"
        payload["max_abs_error"] = fmt_real(worst)
        digest = _payload_digest(payload)
        report = SweepReport(
            command=command,
            config=config,
            payload=payload,
            digest=digest,
            passed=False,
            max_abs_error=worst,
            wall_time=time.perf_counter() - start,
        )
        raise SweepAborted(str(exc), report) from exc

    payload["verdict"] = "pass" if all_pass else "fail"
    payload["max_abs_error"] = fmt_real(worst)
    digest = _payload_digest(payload)
    return SweepReport(
        command=command,
        config=config,
        payload=payload,
        digest=digest,
        passed=bool(all_pass),
        max_abs_error=worst,
        wall_time=time.perf_counter() - start,
    )


def _payload_digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
