"""Command-line entry point.

Subcommands:
  compute  build the full invariant report for an input document
  verify   run the cross-checks only; exit status reflects the outcome
  census   enumerate line-arrangement weak data for a given line count
  oracle   expose the brute-force oracles next to the closed forms

Exit status: 0 success, 1 validation or input-data failure, 2 internal
cross-check failure (an identity violated, indicating a bug), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path

from .laurent import CyclotomicFactorization
from .localsing import Ordinary
from .milnor import milnor_dim, milnor_dim_bruteforce
from .model import HypersurfaceSpec, MalformedDocument, parse_spec
from .pairs import SpectralPairTable
from .report import InvalidSpec, InvariantReport, build_report, render_text, report_to_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IDENTITY = 2
EXIT_USAGE = 3


@dataclass(frozen=True)
class CensusRow:
    """One line-arrangement weak-data row: d lines with the given multiset of
    singular point multiplicities."""

    d: int
    multiplicities: tuple[int, ...]
    mu: int
    delta_m: CyclotomicFactorization
    table: SpectralPairTable
    checks_passed: bool
    failed_checks: tuple[str, ...]
    possibly_unrealizable: bool


def weak_multisets(d: int) -> list[tuple[int, ...]]:
    """All descending multisets {m_i} with 2 <= m_i <= d and
    sum C(m_i, 2) = C(d, 2): every pair of the d lines meets at exactly one
    singular point."""
    target = comb(d, 2)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for m in range(min(cap, d), 1, -1):
            weight = comb(m, 2)
            if weight <= remaining:
                prefix.append(m)
                extend(prefix, remaining - weight, m)
                prefix.pop()

    extend([], target, d)
    return sorted(out)


def arrangement_spec(d: int, multiplicities) -> HypersurfaceSpec:
    """Spec for a line arrangement with the given weak data, modelling each
    multiplicity-m point as an ordinary m-fold point."""
    counts: dict[int, int] = {}
    for m in multiplicities:
        counts[m] = counts.get(m, 0) + 1
    return HypersurfaceSpec(
        n=1,
        d=d,
        components=d,
        singularities=tuple(
            (Ordinary(m), c) for m, c in sorted(counts.items(), reverse=True)
        ),
        line_arrangement=True,
    )


def census_rows(d: int, max_rows: int | None = None) -> list[CensusRow]:
    rows = []
    for mults in weak_multisets(d):
        if max_rows is not None and len(rows) >= max_rows:
            break
        report = build_report(arrangement_spec(d, mults))
        rows.append(
            CensusRow(
                d=d,
                multiplicities=mults,
                mu=report.derived.mu,
                delta_m=report.delta_m,
                table=report.pairs_full,
                checks_passed=report.all_passed,
                failed_checks=tuple(c.name for c in report.failed()),
                # the only warnings are shared-line realizability violations
                possibly_unrealizable=bool(report.warnings),
            )
        )
    return rows


def _census_row_dict(row: CensusRow) -> dict:
    return {
        "d": row.d,
        "multiplicities": list(row.multiplicities),
        "mu": row.mu,
        "delta_M": row.delta_m.to_dict(),
        "table": row.table.to_rows(),
        "checks_passed": row.checks_passed,
        "failed_checks": list(row.failed_checks),
        "possibly_unrealizable": row.possibly_unrealizable,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="specpairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_compute = sub.add_parser("compute", help="build the full invariant report")
    p_compute.add_argument("input", type=Path, help="input document (JSON)")
    p_compute.add_argument(
        "--format", choices=("table", "structured"), default="table"
    )

    p_verify = sub.add_parser("verify", help="run the cross-checks only")
    p_verify.add_argument("input", type=Path, help="input document (JSON)")

    p_census = sub.add_parser(
        "census", help="enumerate line-arrangement weak data"
    )
    p_census.add_argument("--lines", type=int, required=True, metavar="D")
    p_census.add_argument("--max-rows", type=int, default=None, metavar="N")
    p_census.add_argument(
        "--format", choices=("table", "structured"), default="table"
    )

    p_oracle = sub.add_parser("oracle", help="closed form and brute force side by side")
    p_oracle.add_argument("name", choices=("milnor-dim",))
    p_oracle.add_argument("args", type=int, nargs=3, metavar=("N", "D", "M"))
    return parser


def _load_report(path: Path) -> InvariantReport | None:
    """Read, parse and build the report for an input document; None, with the
    reasons on stderr, when any step rejects it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return build_report(parse_spec(text))
    except MalformedDocument as exc:
        for error in exc.errors:
            print(f"malformed document: {error}", file=sys.stderr)
    except InvalidSpec as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
    return None


def _report_exit_status(report: InvariantReport) -> int:
    if report.failed("identity"):
        return EXIT_IDENTITY
    if report.failed("input"):
        return EXIT_INVALID
    return EXIT_OK


def _cmd_compute(args) -> int:
    report = _load_report(args.input)
    if report is None:
        return EXIT_INVALID
    if args.format == "structured":
        print(report_to_json(report))
    else:
        print(render_text(report), end="")
    return _report_exit_status(report)


def _cmd_verify(args) -> int:
    report = _load_report(args.input)
    if report is None:
        return EXIT_INVALID
    for check in report.checks:
        print(check.line())
    return _report_exit_status(report)


def _cmd_census(args) -> int:
    if args.lines < 2:
        print("census requires at least 2 lines", file=sys.stderr)
        return EXIT_INVALID
    rows = census_rows(args.lines, args.max_rows)
    if args.format == "structured":
        print(json.dumps([_census_row_dict(r) for r in rows], sort_keys=True, indent=2))
    else:
        for row in rows:
            mults = ",".join(map(str, row.multiplicities))
            flags = []
            if row.possibly_unrealizable:
                flags.append("possibly-unrealizable")
            status = "ok" if row.checks_passed else "CHECKS-FAILED"
            flag_text = f"  [{' '.join(flags)}]" if flags else ""
            print(
                f"d={row.d}  mults=({mults})  mu={row.mu}  "
                f"delta_M={row.delta_m}  total={row.table.total_dim()}  "
                f"checks={status}{flag_text}"
            )
    if any(not r.checks_passed for r in rows):
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_oracle(args) -> int:
    n, d, m = args.args
    try:
        closed = milnor_dim(n, d, m)
        brute = milnor_dim_bruteforce(n, d, m)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    print(f"{closed} {brute}")
    return EXIT_OK if closed == brute else EXIT_IDENTITY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "census": _cmd_census,
        "oracle": _cmd_oracle,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
