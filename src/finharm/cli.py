"""Command-line front end.

Subcommands: chartable, plancherel-check, whittaker-check, conjecture-probe,
sweep. Exit code 0 means the report verdict is pass, 1 means fail, 2 means
the run aborted (a partial report flagged incomplete is still delivered when
one exists).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FinharmError, SweepAborted
from .reports import RunConfig, SweepReport, build_report

_COMMANDS = {
    "chartable": "compute and certify the character table",
    "plancherel-check": "verify pointwise inversion at the identity on random functions",
    "whittaker-check": "verify the subgroup-transform identity per (subgroup, character)",
    "conjecture-probe": "sample Phi/Theta ratios without asserting proportionality",
    "sweep": "verification sweep: transform checks plus probes for every pair",
}


def _add_common(sp: argparse.ArgumentParser, with_selectors: bool) -> None:
    sp.add_argument("spec", help="group spec, e.g. symmetric:3 or product:cyclic:2*cyclic:4")
    sp.add_argument("--seed", type=int, default=0, help="unsigned 64-bit stream seed")
    sp.add_argument("--tol", type=float, default=1e-9, help="tolerance in [1e-12, 1e-6]")
    sp.add_argument(
        "--format", dest="output_format", choices=("json", "csv"), default="json"
    )
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.add_argument("--count", type=int, default=20, help="number of seeded test functions")
    if with_selectors:
        sp.add_argument(
            "--subgroup",
            default=None,
            help="comma-separated generator indices; omit to enumerate all subgroups",
        )
        sp.add_argument(
            "--psi-index",
            type=int,
            default=None,
            help="single character index; omit to run every linear character",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finharm",
        description="Exact harmonic analysis checks on finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in _COMMANDS.items():
        sp = sub.add_parser(name, help=description)
        _add_common(sp, with_selectors=name in ("whittaker-check", "conjecture-probe", "sweep"))
    return parser


def _deliver(report: SweepReport, out_path: str) -> bool:
    """Write the report; on an unwritable path say so and return False."""
    text = report.rendered()
    try:
        if out_path == "-":
            sys.stdout.write(text)
        else:
            Path(out_path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    subgroup_selector: str | tuple[int, ...] = "all"
    raw_subgroup = getattr(args, "subgroup", None)
    if raw_subgroup is not None:
        try:
            subgroup_selector = tuple(
                int(tok) for tok in raw_subgroup.split(",") if tok.strip() != ""
            )
        except ValueError:
            print(f"error: bad --subgroup value {raw_subgroup!r}", file=sys.stderr)
            return 2
    psi_index = getattr(args, "psi_index", None)
    try:
        config = RunConfig(
            group_spec=args.spec,
            subgroup_selector=subgroup_selector,
            character_selector="all" if psi_index is None else psi_index,
            num_test_functions=args.count,
            seed=args.seed,
            tol=args.tol,
            output_format=args.output_format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = build_report(args.command, config)
    except SweepAborted as exc:
        _deliver(exc.report, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinharmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not _deliver(report, args.out):
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
