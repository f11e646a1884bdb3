"""Command-line front end: count, table, verify, sweep.

Exit codes: 0 on success (every selected check holds), 1 when a check or
engine-agreement test fails, 2 on configuration errors (bad spec, unknown
check name, unwritable output path).

Every command runs in this one process and starts no other.  table,
verify and sweep stream their report row by row to one output stream,
stdout or the --output file opened once, through
``reporting.document_to_json`` (JSON) or ``reporting.rows_to_csv`` (CSV).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable

from . import reporting, sweeps
from .counting import IntegrityError, TableFactory, certify
from .partset import FULL_A, SpecError, make_residue_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _parse_residues(text: str):
    """Comma-separated residues; '' means empty R."""
    if text.strip() == "":
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise SpecError(f"could not parse residues {text!r}") from None


def _write_report(
    args: argparse.Namespace, head: dict, rows: Iterable[dict], fields: tuple[str, ...]
) -> None:
    """Stream rows as CSV, or as a JSON document with head, to --output or stdout."""
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if args.output is not None and args.output != "-":
            out = stack.enter_context(open(args.output, "w", encoding="utf-8", newline=""))
        if args.format == "csv":
            reporting.rows_to_csv(rows, fields, out)
        else:
            reporting.document_to_json(head, rows, fields, out)


def cmd_count(args: argparse.Namespace) -> int:
    spec = make_residue_spec(args.m, _parse_residues(args.r))
    if args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    # the table the other commands read, certified as verify's counts check does
    table = TableFactory(args.n).table(spec, args.variant)
    agree = certify(table, {})
    payload = {"n": args.n, "count": str(table.values[args.n]), "engines_agree": agree}
    sys.stdout.write(json.dumps(payload) + "\n")
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def cmd_table(args: argparse.Namespace) -> int:
    spec = make_residue_spec(args.m, _parse_residues(args.r))
    rows = sweeps.table_rows(spec, TableFactory(args.n_max))
    head = {"command": "table", "m": spec.m, "R": spec.residues}
    _write_report(args, head, rows, reporting.TABLE_FIELDS)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks = tuple(tok for tok in args.checks.split(",") if tok)
    config = sweeps.SweepConfig(m_max=args.m_max, n_max=args.n_max, checks=checks)
    result = sweeps.run_verify(config)
    head = {
        "command": "verify",
        "config": {
            "m_max": config.m_max,
            "n_max": config.n_max,
            "variants": list(sweeps.SWEEP_VARIANTS),
            "checks": list(config.checks),
        },
        "summaries": [reporting.canon_tree(s) for s in result.summaries],
    }
    _write_report(args, head, result.rows, reporting.VERIFY_FIELDS)
    for s in result.summaries:
        worst = s["worst_margin"]
        worst = "-" if worst is None else repr(reporting.canon_float(worst))
        status = "ok" if s["holds"] else "FAIL"
        sys.stderr.write(
            f"check={s['name']} rows={s['rows']} failures={s['failures']} "
            f"worst_margin={worst} status={status}\n"
        )
    sys.stderr.write(
        f"verify: {'OK' if result.ok else 'FAILED'} ({len(result.summaries)} checks)\n"
    )
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweeps.sweep_rows(args.m_max, args.n_max)
    head = {"command": "sweep", "m_max": args.m_max, "n_max": args.n_max}
    _write_report(args, head, rows, reporting.SWEEP_FIELDS)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partlab",
        description="Exact restricted-partition counts and bound verification "
        "for residue-class part sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the report options of table, verify and sweep
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "csv"), default="json")
    report.add_argument("--output", default=None, help="file path, default stdout")

    p_count = sub.add_parser("count", help="count partitions with two engines")
    p_count.add_argument("--m", type=int, required=True, help="modulus (>= 1)")
    p_count.add_argument("--r", required=True, help="comma-separated residues, '' for empty")
    p_count.add_argument(
        "--variant",
        choices=sweeps.SWEEP_VARIANTS,
        default=FULL_A,
        help="which part set to count over",
    )
    p_count.add_argument("--n", type=int, required=True, help="target integer")
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser(
        "table", parents=[report], help="per-n counts, bound, slack, ratio"
    )
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--r", required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser(
        "verify", parents=[report], help="run named checks over a sweep grid"
    )
    p_verify.add_argument(
        "--checks",
        default=",".join(sweeps.CHECK_NAMES),
        help=f"comma-separated subset of {','.join(sweeps.CHECK_NAMES)}",
    )
    p_verify.add_argument("--m-max", type=int, default=4)
    p_verify.add_argument("--n-max", type=int, default=300)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", parents=[report], help="emit table rows for every residue subset up to m-max"
    )
    p_sweep.add_argument("--m-max", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except IntegrityError as exc:
        sys.stderr.write(f"integrity failure: {exc}\n")
        return EXIT_CHECK_FAILED
    except OSError as exc:
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
