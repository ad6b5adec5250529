"""Run configuration, report assembly, and serialization.

A report is a plain JSON-serializable dict with top-level keys config, group,
table, checks, probes, verdict, max_abs_error, plus a digest over exactly
those keys and a wall_time field outside the digest. The report of a run that
aborted also has the keys incomplete (true) and error (the message) under the
digest, and lacks group and table when it aborted before building them. All
floats are serialized through the 12-significant-digit formatter, so
identical configurations produce byte-identical digest-bearing sections on
every platform.

The digest is the sha256 of json.dumps(payload, sort_keys=True,
separators=(",", ":")). The JSON rendering is json.dumps(document,
sort_keys=True, indent=2) byte for byte, written by orjson when the digest
proves orjson's tokens canonical. CSV is not digested; a cell holds no comma
or line break.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ._rng import test_functions
from .characters import (
    CharacterTable,
    character_table,
    linear_characters,
    table_csv_lines,
)
from .errors import FinharmError, IndexOutOfRange, OrderTooLarge, SweepAborted
from .formatting import fmt_complex_rows, fmt_real
from .groups import FiniteGroup, Subgroup, enumerate_subgroups, make_named_group, subgroup_closure
from .harmonic import plancherel_invert_at_identity, generalized_plancherel_check_batch
from .induction import (
    ProbePlan,
    ProbeRecord,
    SubgroupSpectrum,
    conjecture_probe,
    kernel_multiplicity_identity_check,
    probe_plan,
    subgroup_spectra,
)

SWEEP_ORDER_CAP = 200

# what json's ensure_ascii escapes and orjson writes raw
_BEYOND_ASCII = re.compile("[\x7f-\U0010ffff]+")


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

    def __post_init__(self) -> None:
        if not self.group_spec:
            raise ValueError("group_spec must be nonempty")
        if self.subgroup_selector != "all":
            gens = tuple(_index("subgroup_selector", g) for g in self.subgroup_selector)
            object.__setattr__(self, "subgroup_selector", gens)
        if self.character_selector != "all":
            k = _index("character_selector", self.character_selector)
            if k < 0:
                raise ValueError("character_selector index must be nonnegative")
            object.__setattr__(self, "character_selector", k)
        for name in ("num_test_functions", "seed"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        object.__setattr__(self, "tol", float(self.tol))
        if not 1 <= self.num_test_functions <= 10**4:
            raise ValueError("num_test_functions must lie in [1, 10^4]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 1e-12 <= self.tol <= 1e-6:
            raise ValueError("tol must lie in [1e-12, 1e-6]")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")


def _index(name: str, value: Any) -> int:
    """value as a Python int; ValueError unless its type is integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SweepReport:
    """Assembled report plus its digest and timing."""

    config: RunConfig
    payload: dict[str, Any]
    digest: str
    passed: bool
    wall_time: float

    def to_json(self) -> str:
        """json.dumps(doc, sort_keys=True, indent=2) + "\\n" of the payload
        with its digest and wall_time, byte for byte.

        orjson writes it when its compact text of the payload, escaped as
        json's ensure_ascii escapes, hashes to the digest: its tokens are then
        the canonical ones. Otherwise, and when orjson refuses the payload
        (ints beyond 64 bits, lone surrogates), json writes it.
        """
        import orjson  # on the first render: finharm's import does without it

        doc = dict(self.payload, digest=self.digest, wall_time=None)
        try:
            # each text is let go once used, so that at most two are alive at
            # once: the one being copied and its copy
            proof = hashlib.sha256(_ascii(orjson.dumps(self.payload, option=orjson.OPT_SORT_KEYS)))
            if proof.hexdigest() == self.digest:
                text = orjson.dumps(
                    doc,
                    option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE,
                )
                # only a top-level key follows a newline and two spaces
                wall_time = b'\n  "wall_time": ' + json.dumps(self.wall_time).encode()
                text = text.replace(b'\n  "wall_time": null', wall_time, 1)
                return _ascii(text).decode()
        except orjson.JSONEncodeError:
            pass
        doc["wall_time"] = self.wall_time
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        p = self.payload
        lines: list[str] = []
        for section in ("config", "group"):
            if section in p:
                lines.append(f"# {section}")
                lines.extend(f"{key},{_csv_scalar(p[section][key])}" for key in sorted(p[section]))
        if "table" in p:
            lines.append("# table")
            lines.extend(table_csv_lines(p["table"]["degrees"], p["table"]["rows"]))
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


def _ascii(raw: bytes) -> bytes:
    """orjson's UTF-8 text with DEL and every character beyond ASCII escaped
    as json's ensure_ascii escapes them, surrogate pairs above U+FFFF."""
    if raw.isascii() and b"\x7f" not in raw:  # both far faster than the regex's scan
        return raw
    return _BEYOND_ASCII.sub(lambda m: json.dumps(m.group())[1:-1], raw.decode()).encode()


def _csv_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    # one cell, and every record on one line
    return str(value).replace(",", ";").replace("\r", "\\r").replace("\n", "\\n")


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


def _table_block(table: CharacterTable) -> dict[str, Any]:
    orth = table.orthogonality
    return {
        "num_irreps": table.num_irreps,
        "degrees": list(table.degrees),
        "plancherel_weights": [fmt_real(w) for w in table.plancherel_weights],
        "rows": [list(row) for row in table.value_strings],
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


def _iter_subgroups(
    G: FiniteGroup, config: RunConfig
) -> Iterator[tuple[Subgroup, Sequence[int], np.ndarray]]:
    """Each subgroup of the run with the indices of its selected linear
    characters and the (num_selected, |U|) stack of the characters
    themselves."""
    if config.subgroup_selector == "all":
        subgroups = enumerate_subgroups(G)
    else:
        subgroups = [subgroup_closure(G, config.subgroup_selector)]
    for U in subgroups:
        psis = linear_characters(U)
        if config.character_selector == "all":
            yield U, range(len(psis)), psis
            continue
        k = int(config.character_selector)
        if k >= len(psis):
            raise IndexOutOfRange(
                f"psi index {k} out of range: subgroup of order {U.order} "
                f"has {len(psis)} linear characters"
            )
        yield U, [k], psis[k : k + 1]


def _identity_block(
    spectrum: SubgroupSpectrum, j: int, residual: float, passed: bool,
    kernel_at_identity: list[str],
) -> dict[str, Any]:
    return {
        "max_residual": fmt_real(residual),
        "pass": passed,
        "kernel_at_identity": kernel_at_identity,
        "multiplicities": spectrum.multiplicities[j].tolist(),
        "conjugate_multiplicities": spectrum.conjugate_multiplicities[j].tolist(),
    }


def _probe_per_pi(
    spectrum: SubgroupSpectrum,
    probe: ProbeRecord,
    i: int,
    num_flagged: list[int],
    kernel_at_identity: list[str],
    first_ratio: Sequence[str],
) -> list[dict[str, Any]]:
    count = probe.flagged.shape[1]
    return [
        {
            "pi": pi,
            "degree": degree,
            "multiplicity": m,
            "conjugate_multiplicity": m_bar,
            "kernel_at_identity": kernel_at_identity[pi],
            "ratio_constant": constant,
            "num_flagged": num_flagged[pi],
            "first_ratio": None if num_flagged[pi] == count else first_ratio[pi],
            "max_ratio_spread": fmt_real(spread),
        }
        for pi, (degree, m, m_bar, constant, spread) in enumerate(
            zip(
                spectrum.table.degrees,
                spectrum.multiplicities[i].tolist(),
                spectrum.conjugate_multiplicities[i].tolist(),
                probe.constant[i].tolist(),
                probe.spread[i].tolist(),
            )
        )
    ]


def _pair_blocks(
    table: CharacterTable,
    U: Subgroup,
    indices: Sequence[int],
    psis: np.ndarray,
    config: RunConfig,
    checked: tuple[np.ndarray, np.ndarray] | None,
    probed: tuple[ProbePlan, list[int]] | None,
) -> Iterator[tuple[dict[str, Any] | None, dict[str, Any] | None, tuple[float, float] | None]]:
    """The check block, the probe block and the check's (max_abs_error,
    max_residual) of each selected (U, psi) in order, one spectrum per block
    of characters.

    checked holds the test functions and their L1 norms, probed the probe
    plan and its flag count per irrep; either is None when the command skips
    that part. A pair whose spectrum fails raises after the pairs before it.
    """
    subgroup = _subgroup_block(U)
    r, count = table.num_irreps, config.num_test_functions
    done = 0
    for spectrum in subgroup_spectra(table, U, psis, count):
        js = indices[done : done + len(spectrum.psi_values)]
        done += len(js)
        identity_ok = kernel_multiplicity_identity_check(spectrum, config.tol).tolist()
        residuals = spectrum.residuals.max(axis=1).tolist()
        if checked is not None:
            F, f_l1 = checked
            rec = generalized_plancherel_check_batch(spectrum, F)
            theorem_ok = (rec.abs_error <= config.tol * (1.0 + f_l1)).all(axis=1).tolist()
            max_errs = rec.abs_error.max(axis=1).tolist()
        probe = None if probed is None else conjecture_probe(spectrum, probed[0])
        # the block's complex strings in one pass: kernels at the identity,
        # psi on U, then the probe's first ratios
        strings = fmt_complex_rows(
            np.hstack(
                [spectrum.kernels[:, :, 0], spectrum.psi_values]
                + ([] if probe is None else [probe.first_ratio])
            )
        )
        for i, j in enumerate(js):
            kernel_at_identity = list(strings[i][:r])
            check = probe_block = errors = None
            if checked is not None:
                check = {
                    "subgroup": subgroup,
                    "psi_index": j,
                    "psi_on_members": list(strings[i][r : r + U.order]),
                    "num_functions": count,
                    "max_abs_error": fmt_real(max_errs[i]),
                    "identity": _identity_block(
                        spectrum, i, residuals[i], identity_ok[i], kernel_at_identity
                    ),
                    "pass": theorem_ok[i] and identity_ok[i],
                }
                errors = max_errs[i], residuals[i]
            if probe is not None:
                probe_block = {
                    "subgroup": subgroup,
                    "psi_index": j,
                    "identity_check": identity_ok[i],
                    "per_pi": _probe_per_pi(
                        spectrum, probe, i, probed[1], kernel_at_identity,
                        strings[i][r + U.order :],
                    ),
                }
            yield check, probe_block, errors
        spectrum = probe = rec = None  # let this block go before the next is built


def build_report(command: str, config: RunConfig) -> SweepReport:
    """Assemble the report for one CLI command.

    On any package error, and when memory or the recursion limit runs out,
    the partially assembled payload is flagged incomplete and carried inside
    the raised SweepAborted, so the CLI can still deliver it alongside a
    nonzero exit code.
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
    aborted = None
    try:
        G = make_named_group(config.group_spec)
        table = character_table(G, seed=config.seed, tol=config.tol)
        payload["group"] = _group_block(config, G, table)
        payload["table"] = _table_block(table)
        worst = max(worst, table.orthogonality.max_deviation)
        all_pass = all_pass and table.orthogonality.passed

        if command == "plancherel-check":
            F = test_functions(G, config.seed, range(config.num_test_functions))
            errors = np.abs(F[:, 0] - plancherel_invert_at_identity(table, F))
            # a row within tol passes whatever its L1 norm; only the rest need one
            over = errors > config.tol
            ok = bool((errors[over] <= config.tol * (1.0 + np.abs(F[over]).sum(axis=1))).all())
            max_err = float(errors.max())
            checks.append(
                {
                    "kind": "plancherel-inversion",
                    "num_functions": config.num_test_functions,
                    "max_abs_error": fmt_real(max_err),
                    "pass": ok,
                }
            )
            worst = max(worst, max_err)
            all_pass = all_pass and ok

        if command in ("whittaker-check", "conjecture-probe", "sweep"):
            if G.order > SWEEP_ORDER_CAP:
                raise OrderTooLarge(
                    f"sweeps are capped at group order {SWEEP_ORDER_CAP}, got {G.order}"
                )
            # the test functions and their L1 norms, and the probe plan and
            # its flag counts, once per report; then one pass per subgroup
            count = config.num_test_functions
            checked = probed = None
            if command != "conjecture-probe":
                F = test_functions(G, config.seed, range(count))
                checked = F, np.abs(F).sum(axis=1)
            if command != "whittaker-check":
                plan = probe_plan(table, count, config.seed)
                probed = plan, plan.flagged.sum(axis=1).tolist()
            for U, indices, psis in _iter_subgroups(G, config):
                for check, probe, errors in _pair_blocks(
                    table, U, indices, psis, config, checked, probed
                ):
                    if check is not None:
                        checks.append(check)
                        worst = max(worst, *errors)
                        all_pass = all_pass and check["pass"]
                    if probe is not None:
                        probes.append(probe)
                        all_pass = all_pass and probe["identity_check"]
    except (FinharmError, MemoryError, RecursionError) as exc:
        aborted = exc
        payload["incomplete"] = True
        payload["error"] = str(exc) or type(exc).__name__
        all_pass = False

    payload["verdict"] = "pass" if all_pass else "fail"
    payload["max_abs_error"] = fmt_real(worst)
    report = SweepReport(
        config=config,
        payload=payload,
        digest=_payload_digest(payload),
        passed=bool(all_pass),
        wall_time=time.perf_counter() - start,
    )
    if aborted is not None:
        raise SweepAborted(payload["error"], report) from aborted
    return report


def _payload_digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
