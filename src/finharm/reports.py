"""Run configuration, report assembly, and serialization.

A report is a plain JSON-serializable dict with top-level keys config, group,
table, checks, probes, verdict, max_abs_error, plus a digest over exactly
those keys and a wall_time field outside the digest. The report of a run that
aborted also has the keys incomplete (true) and error (the message) under the
digest, and lacks group and table when it aborted before building them. All
floats are serialized through the 12-significant-digit formatter, so
identical configurations produce byte-identical digest-bearing sections on
every platform.

The (U, psi) pairs are held as per-pair arrays, one record per spectrum
block, and each pair's check and probe records are written once from them
after the run, finished or aborted, with all their complex strings from one
fmt_complex_rows call. The verdict and max_abs_error are folded from the same
arrays, the table's orthogonality and the inversion: the verdict passes when
the run finished and every pass flag holds, and max_abs_error is the largest
of the orthogonality deviation, the inversion's error, and each checked
pair's error and identity residual (a NaN carries). A probe-only report's
residuals stay out of it.

The digest is the sha256 of json.dumps(payload, sort_keys=True,
separators=(",", ":")), and orjson computes it. Every leaf build_report puts
in a payload is a str (each number goes through fmt_real or
fmt_complex_rows), a Python int, a bool or None, under str-keyed dicts and
lists; orjson's compact sorted text of such a payload, with DEL and every
character beyond ASCII escaped as json's ensure_ascii escapes them, is json's
text byte for byte. json computes it where orjson refuses the payload: ints
beyond 64 bits, lone surrogates, keys that are not str. The JSON rendering is
json.dumps(document, sort_keys=True, indent=2) byte for byte: orjson writes
the reports whose digest build_report took from orjson, json every other.
CSV is not digested; each row section starts with its header line, and a
cell holds no comma or line break.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import time
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

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
from .groups import (
    FiniteGroup, Subgroup, _index, _real, enumerate_subgroups, make_named_group,
    row_blocks, subgroup_closure,
)
from .harmonic import plancherel_invert_at_identity, generalized_plancherel_check_batch
from .induction import (
    ProbePlan,
    conjecture_probe,
    kernel_multiplicity_identity_check,
    probe_plan,
    subgroup_spectra,
)

SWEEP_ORDER_CAP = 200


class Command(NamedTuple):
    """A command's help text and the parts it runs after the table: the
    inversion at the identity, and the check and the probe of each selected
    (U, psi). A command that runs over pairs takes their selectors."""

    help: str
    inversion: bool = False
    checks: bool = False
    probes: bool = False

    @property
    def pairs(self) -> bool:
        return self.checks or self.probes


COMMANDS = {
    "chartable": Command("compute and certify the character table"),
    "plancherel-check": Command(
        "verify pointwise inversion at the identity on random functions", inversion=True
    ),
    "whittaker-check": Command(
        "verify the subgroup-transform identity per (subgroup, character)", checks=True
    ),
    "conjecture-probe": Command(
        "sample Phi/Theta ratios without asserting proportionality", probes=True
    ),
    "sweep": Command(
        "verification sweep: transform checks plus probes for every pair", checks=True, probes=True
    ),
}

# what json's ensure_ascii escapes and orjson writes raw
_BEYOND_ASCII = re.compile("[\x7f-\U0010ffff]+")


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run.

    Every field is a key of the report's config block, and so part of its
    digest.
    """

    group_spec: str
    subgroup_selector: str | tuple[int, ...] = "all"
    character_selector: str | int = "all"
    num_test_functions: int = 20
    seed: int = 0
    tol: float = 1e-9
    output_format: str = "json"

    def __post_init__(self) -> None:
        if not isinstance(self.group_spec, str) or not self.group_spec:
            raise ValueError(f"group_spec must be a nonempty str, got {self.group_spec!r}")
        try:  # reports are written as these bytes
            self.group_spec.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError:
            raise ValueError(
                f"group_spec holds a surrogate that stands for no byte: {self.group_spec!r}"
            ) from None
        selector = self.subgroup_selector
        if not isinstance(selector, str) or selector != "all":  # an index array compares per entry
            if isinstance(selector, str) or not hasattr(selector, "__iter__"):
                raise ValueError(f'subgroup_selector must be "all" or indices, got {selector!r}')
            gens = tuple(_index("subgroup_selector", g) for g in selector)
            object.__setattr__(self, "subgroup_selector", gens)
        if not isinstance(self.character_selector, str) or self.character_selector != "all":
            k = _index("character_selector", self.character_selector)
            if k < 0:
                raise ValueError("character_selector index must be nonnegative")
            object.__setattr__(self, "character_selector", k)
        for name in ("num_test_functions", "seed"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        object.__setattr__(self, "tol", _real("tol", self.tol))
        if not 1 <= self.num_test_functions <= 10**4:
            raise ValueError("num_test_functions must lie in [1, 10^4]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 1e-12 <= self.tol <= 1e-6:
            raise ValueError("tol must lie in [1e-12, 1e-6]")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")


@dataclass(frozen=True)
class SweepReport:
    """Assembled report plus its digest and timing; passed is whether the
    payload's verdict is pass. proven_payload is the payload object whose
    orjson compact text _payload_digest hashed to the digest, if any: a
    report copied with another payload does not inherit the proof, but one
    whose payload is changed in place keeps it, so copy it before editing."""

    payload: dict[str, Any]
    digest: str
    wall_time: float
    proven_payload: dict[str, Any] | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.payload["verdict"] == "pass"

    def to_json(self) -> str:
        """json.dumps(doc, sort_keys=True, indent=2) + "\\n" of the payload
        with its digest and wall_time, byte for byte. orjson writes it when the
        payload is proven_payload, whose compact text build_report hashed to
        the digest: its tokens are then json's, and the document adds only a
        str and None. json writes every other report: one whose payload orjson
        refused (ints beyond 64 bits, lone surrogates), or one built by hand or
        copied with another payload, whose floats orjson writes its own way.
        """
        doc = dict(self.payload, digest=self.digest, wall_time=None)
        if self.proven_payload is self.payload:
            import orjson

            # each text is let go once used, so that at most two are alive at
            # once: the one being copied and its copy
            text = orjson.dumps(
                doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
            )
            # only a top-level key follows a newline and two spaces
            wall_time = b'\n  "wall_time": ' + json.dumps(self.wall_time).encode()
            text = text.replace(b'\n  "wall_time": null', wall_time, 1)
            return _ascii(text).decode()
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
            # a command has either the inversion row or pair checks
            columns = _CHECK_COLUMNS if "subgroup" in p["checks"][0] else _INVERSION_COLUMNS
            _csv_section(lines, "checks", columns, p["checks"])
        if p.get("probes"):
            rows = ({**blk, **rec} for blk in p["probes"] for rec in blk["per_pi"])
            _csv_section(lines, "probes", _PROBE_COLUMNS, rows)
        lines.append("# verdict")
        lines.append(f"verdict,{p['verdict']}")
        lines.append(f"max_abs_error,{p['max_abs_error']}")
        if "error" in p:
            lines.append(f"error,{_csv_scalar(p['error'])}")
            lines.append("incomplete,true")
        lines.append(f"digest,{self.digest}")
        return "\n".join(lines) + "\n"

    def rendered(self) -> str:
        csv = self.payload["config"]["output_format"] == "csv"
        return self.to_csv() if csv else self.to_json()


def _orjson_compact(payload: dict[str, Any]) -> bytes:
    """orjson's compact sorted text of payload, escaped by _ascii; raises
    orjson.JSONEncodeError where orjson refuses the payload."""
    import orjson

    return _ascii(orjson.dumps(payload, option=orjson.OPT_SORT_KEYS))


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


# (header, key path) of each column of a CSV row section: a pair check, the
# inversion row, and a probe record, whose paths read its pair's keys beside
# its own
_CHECK_COLUMNS = (
    ("subgroup", "subgroup.members"), ("psi_index", "psi_index"),
    ("num_functions", "num_functions"), ("max_abs_error", "max_abs_error"),
    ("identity_max_residual", "identity.max_residual"), ("pass", "pass"),
)
_INVERSION_COLUMNS = (
    ("kind", "kind"), ("num_functions", "num_functions"), ("max_abs_error", "max_abs_error"),
    ("pass", "pass"),
)
_PROBE_COLUMNS = (
    ("subgroup", "subgroup.members"), ("psi_index", "psi_index"), ("pi", "pi"),
    ("degree", "degree"), ("multiplicity", "multiplicity"),
    ("conjugate_multiplicity", "conjugate_multiplicity"),
    ("kernel_at_identity", "kernel_at_identity"), ("ratio_constant", "ratio_constant"),
    ("num_flagged", "num_flagged"),
)


def _csv_section(
    lines: list[str], name: str, columns: Sequence[tuple[str, str]], rows: Iterable[dict[str, Any]]
) -> None:
    """Append a CSV row section: its name, its header line, then its rows."""
    lines.append(f"# {name}")
    lines.append(",".join(header for header, _ in columns))
    lines.extend(_csv_row(columns, row) for row in rows)


def _csv_row(columns: Sequence[tuple[str, str]], block: dict[str, Any]) -> str:
    cells = (reduce(operator.getitem, path.split("."), block) for _, path in columns)
    return ",".join(map(_csv_scalar, cells))


def _config_block(command: str, config: RunConfig) -> dict[str, Any]:
    block = asdict(config)
    if config.subgroup_selector != "all":
        block["subgroup_selector"] = list(config.subgroup_selector)
    block.update(command=command, tol=fmt_real(config.tol))
    return block


def _group_block(config: RunConfig, G: FiniteGroup, table: CharacterTable) -> dict[str, Any]:
    return {
        "spec": config.group_spec,
        "label": G.label,
        "order": G.order,
        "num_classes": len(G.class_reps),
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
        k = config.character_selector
        if k >= len(psis):
            raise IndexOutOfRange(
                f"psi index {k} out of range: subgroup of order {U.order} "
                f"has {len(psis)} linear characters"
            )
        yield U, [k], psis[k : k + 1]


def _within_tolerance(errors: np.ndarray, F: np.ndarray, tol: float) -> np.ndarray:
    """Whether each error lies within tol * (1 + ||f||_1), f the row of F its
    last index names: the bound of every transform certificate. An error
    within tol passes unsummed, and a NaN error fails."""
    ok = errors <= tol
    rows = ~ok.all(axis=tuple(range(errors.ndim - 1)))
    if rows.any():
        ok[..., rows] = errors[..., rows] <= tol * (1.0 + np.abs(F[rows]).sum(axis=1))
    return ok


class _Pairs(NamedTuple):
    """The selected (U, psi) of one spectrum block as per-pair arrays, one
    row per psi: all that their check and probe records are written from.

    errors (each check's largest error) and theorem_ok are None when the
    command skips the check, constant and spread when it skips the probe.
    values holds each pair's complex values: the kernels at the identity,
    psi on U when checked, then the probe's first ratios when probed.
    """

    subgroup: dict[str, Any]
    psi_indices: Sequence[int]
    multiplicities: np.ndarray
    conjugate_multiplicities: np.ndarray
    residuals: np.ndarray
    identity_ok: np.ndarray
    errors: np.ndarray | None
    theorem_ok: np.ndarray | None
    constant: np.ndarray | None
    spread: np.ndarray | None
    values: np.ndarray


def _pair_blocks(
    table: CharacterTable,
    U: Subgroup,
    indices: Sequence[int],
    psis: np.ndarray,
    config: RunConfig,
    checked: np.ndarray | None,
    plan: ProbePlan | None,
) -> Iterator[_Pairs]:
    """The pairs of each spectrum block of the selected characters of U, in
    order. checked holds the test functions F, one per row, and plan the
    probe plan; either is None when the command skips that part. A pair
    whose spectrum fails raises after the blocks before it."""
    subgroup = {"members": list(U.members), "order": U.order, "num_cosets": U.num_cosets}
    done = 0
    for spectrum in subgroup_spectra(table, U, psis, config.num_test_functions):
        values = [spectrum.kernels[:, :, 0]]
        errors = theorem_ok = constant = spread = None
        if checked is not None:
            rec = generalized_plancherel_check_batch(spectrum, checked)
            errors = rec.abs_error.max(axis=1)
            theorem_ok = _within_tolerance(rec.abs_error, checked, config.tol).all(axis=1)
            values.append(spectrum.psi_values)
        if plan is not None:
            probe = conjecture_probe(spectrum, plan)
            constant, spread = probe.constant, probe.spread
            values.append(probe.first_ratio)
        js = indices[done : done + len(spectrum.psi_values)]
        done += len(js)
        identity_ok = kernel_multiplicity_identity_check(spectrum, config.tol)
        yield _Pairs(
            subgroup, js, spectrum.multiplicities, spectrum.conjugate_multiplicities,
            spectrum.residuals.max(axis=1), identity_ok, errors, theorem_ok, constant, spread,
            np.hstack(values),
        )
        spectrum = probe = rec = None  # let this block go before the next is built


def _write_pairs(
    payload: dict[str, Any], blocks: list[_Pairs], num_flagged: list[int] | None
) -> None:
    """Append the check and the probe record of every pair of blocks to the
    payload, their complex strings formatted in one fmt_complex_rows call:
    per call its fixed numpy cost outweighs a block's few dozen values.
    num_flagged counts the probe plan's flagged samples per irrep."""
    if not blocks:
        return
    (strings,) = fmt_complex_rows(np.concatenate([b.values.ravel() for b in blocks])[None])
    degrees = payload["table"]["degrees"]
    count = payload["config"]["num_test_functions"]
    r, at = len(degrees), 0
    for b in blocks:
        width = b.values.shape[1]
        mults = b.multiplicities.tolist()
        conj_mults = b.conjugate_multiplicities.tolist()
        identity_ok = b.identity_ok.tolist()
        if b.errors is not None:
            errors = [fmt_real(e) for e in b.errors.tolist()]
            residuals = [fmt_real(e) for e in b.residuals.tolist()]
            passed = (b.theorem_ok & b.identity_ok).tolist()
        if b.spread is not None:
            constant = b.constant.tolist()
            spread = [[fmt_real(s) for s in row] for row in b.spread.tolist()]
        for i, j in enumerate(b.psi_indices):
            row = strings[at : at + width]
            at += width
            if b.errors is not None:
                payload["checks"].append(
                    {
                        "subgroup": b.subgroup,
                        "psi_index": j,
                        "psi_on_members": list(row[r : r + b.subgroup["order"]]),
                        "num_functions": count,
                        "max_abs_error": errors[i],
                        "identity": {
                            "max_residual": residuals[i],
                            "pass": identity_ok[i],
                            "kernel_at_identity": list(row[:r]),
                            "multiplicities": mults[i],
                            "conjugate_multiplicities": conj_mults[i],
                        },
                        "pass": passed[i],
                    }
                )
            if b.spread is not None:
                columns = zip(
                    degrees, mults[i], conj_mults[i], row, constant[i], num_flagged,
                    row[width - r :], spread[i],
                )
                per_pi = [
                    {
                        "pi": pi,
                        "degree": degree,
                        "multiplicity": m,
                        "conjugate_multiplicity": m_bar,
                        "kernel_at_identity": k,
                        "ratio_constant": c,
                        "num_flagged": flagged,
                        "first_ratio": None if flagged == count else ratio,
                        "max_ratio_spread": s,
                    }
                    for pi, (degree, m, m_bar, k, c, flagged, ratio, s) in enumerate(columns)
                ]
                payload["probes"].append(
                    {
                        "subgroup": b.subgroup,
                        "psi_index": j,
                        "identity_check": identity_ok[i],
                        "per_pi": per_pi,
                    }
                )


def build_report(command: str, config: RunConfig) -> SweepReport:
    """Assemble the report for one command of COMMANDS; ValueError for any
    other.

    On any package error, and when memory or the recursion limit runs out,
    the partially assembled payload is flagged incomplete and carried inside
    the raised SweepAborted, so the CLI can still deliver it alongside a
    nonzero exit code.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    parts = COMMANDS[command]
    start = time.perf_counter()
    payload: dict[str, Any] = {
        "config": _config_block(command, config),
        "checks": [],
        "probes": [],
    }
    # what the verdict and max_abs_error are folded from: the table, the
    # inversion's (largest error, pass) and the blocks of pairs
    table = inversion = num_flagged = None
    blocks: list[_Pairs] = []
    aborted = None
    try:
        G = make_named_group(config.group_spec)
        table = character_table(G, seed=config.seed, tol=config.tol)
        payload["group"] = _group_block(config, G, table)
        payload["table"] = _table_block(table)

        if parts.inversion:
            # the functions are drawn, inverted and judged one block of rows
            # at a time, so memory does not grow with the count; each row is
            # keyed by its index and keeps its bits
            count = config.num_test_functions
            maxima, passes = [], []
            for rows in row_blocks(count, G.order):
                F = test_functions(G, config.seed, range(count)[rows])
                errors = np.abs(F[:, 0] - plancherel_invert_at_identity(table, F))
                maxima.append(errors.max())
                passes.append(_within_tolerance(errors, F, config.tol).all())
            inversion = float(np.max(maxima)), bool(np.all(passes))
            payload["checks"].append(
                {
                    "kind": "plancherel-inversion",
                    "num_functions": count,
                    "max_abs_error": fmt_real(inversion[0]),
                    "pass": inversion[1],
                }
            )

        if parts.pairs:
            if G.order > SWEEP_ORDER_CAP:
                raise OrderTooLarge(
                    f"sweeps are capped at group order {SWEEP_ORDER_CAP}, got {G.order}"
                )
            # the test functions, and the probe plan, once per report; then
            # one pass per subgroup
            count = config.num_test_functions
            checked = plan = None
            if parts.checks:
                checked = test_functions(G, config.seed, range(count))
            if parts.probes:
                plan = probe_plan(table, count, config.seed)
                num_flagged = plan.flagged.sum(axis=1).tolist()
            for U, indices, psis in _iter_subgroups(G, config):
                for block in _pair_blocks(table, U, indices, psis, config, checked, plan):
                    blocks.append(block)
    except (FinharmError, MemoryError, RecursionError) as exc:
        aborted = exc
        payload["incomplete"] = True
        payload["error"] = str(exc) or type(exc).__name__

    _write_pairs(payload, blocks, num_flagged)
    # identity residuals count only where a check record carries them
    checked_blocks = [b for b in blocks if b.errors is not None]
    all_errors = [0.0, *(b.errors for b in checked_blocks), *(b.residuals for b in checked_blocks)]
    all_passes = [aborted is None, *(b.identity_ok for b in blocks)]
    all_passes += [b.theorem_ok for b in checked_blocks]
    if table is not None:
        all_errors.append(table.orthogonality.max_deviation)
        all_passes.append(table.orthogonality.passed)
    if inversion is not None:
        all_errors.append(inversion[0])
        all_passes.append(inversion[1])
    payload["verdict"] = "pass" if all(np.all(p) for p in all_passes) else "fail"
    payload["max_abs_error"] = fmt_real(np.max(np.hstack(all_errors)))
    digest, by_orjson = _payload_digest(payload)
    report = SweepReport(
        payload=payload,
        digest=digest,
        wall_time=time.perf_counter() - start,
        proven_payload=payload if by_orjson else None,
    )
    if aborted is not None:
        raise SweepAborted(payload["error"], report) from aborted
    return report


def _payload_digest(payload: dict[str, Any]) -> tuple[str, bool]:
    """sha256 of json.dumps(payload, sort_keys=True, separators=(",", ":")),
    written by orjson unless it refuses the payload (see the module
    docstring for the payloads on which the two agree), and whether orjson
    wrote it."""
    import orjson  # at the first digest: finharm's import does without it

    try:
        return hashlib.sha256(_orjson_compact(payload)).hexdigest(), True
    except orjson.JSONEncodeError:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(canonical).hexdigest(), False
