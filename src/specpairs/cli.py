"""Command-line entry point.

Subcommands:
  compute  build the full invariant report for an input document
  verify   run the cross-checks only; exit status reflects the outcome
  census   enumerate line-arrangement weak data for a given line count
  oracle   the spectrum engine and a brute-force enumeration side by side

Exit status: 0 success, 1 validation or input-data failure or a reader that
closed standard output early, 2 internal cross-check failure or unexpected
error (indicating a bug), 3 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from functools import partial
from itertools import islice
from math import comb
from pathlib import Path
from typing import Iterator

from .localsing import Ordinary
from .milnor import milnor_dim, milnor_dim_bruteforce
from .model import HypersurfaceSpec, InvalidSpec, MalformedDocument, parse_spec
from .pairs import _angle_texts
from .report import InvariantReport, _json, build_report, render_text, report_to_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IDENTITY = 2
EXIT_USAGE = 3


def _weak_runs(d: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All descending multisets {m_i} with 2 <= m_i <= d and
    sum C(m_i, 2) = C(d, 2), in lexicographic order (every pair of the d
    lines meets at exactly one singular point), each as its runs
    (multiplicity, count) with the multiplicity descending."""

    def extend(prefix: tuple[tuple[int, int], ...], remaining: int, cap: int):
        # The largest multiplicity comes first, so choosing it and then how
        # often it repeats, each upward, gives lexicographic order; only 2s
        # can follow a 2, so a run of 2s fills the rest.
        if remaining == 0:
            yield prefix
            return
        for m in range(2, cap + 1):
            weight = comb(m, 2)
            for count in range(1 if m > 2 else remaining, remaining // weight + 1):
                rest = remaining - count * weight
                yield from extend(prefix + ((m, count),), rest, m - 1)

    return extend((), comb(d, 2), d)


def arrangement_spec(
    d: int, points, germs: dict[int, Ordinary] | None = None
) -> HypersurfaceSpec:
    """Spec for a line arrangement with the given weak data, a sequence of
    its (multiplicity, count) runs with the multiplicity descending, modelling
    each multiplicity-m point as an ordinary m-fold point.  `germs` maps
    multiplicities to the germs to use and gains the ones it lacks, so
    specs built from one such map share each germ and its tables."""
    germs = {} if germs is None else germs
    germs.update((m, Ordinary(m)) for m, _ in points if m not in germs)
    return HypersurfaceSpec(
        n=1,
        d=d,
        components=d,
        singularities=tuple((germs[m], c) for m, c in points),
    )


def census_rows(d: int, max_rows: int | None = None) -> Iterator[InvariantReport]:
    """The reports of the census rows of d lines in _weak_runs order,
    each built when it is asked for; at most max_rows of them.  The rows
    share one germ per multiplicity, so each spectrum is enumerated once
    per census."""
    germs: dict[int, Ordinary] = {}
    for runs in islice(_weak_runs(d), max_rows):
        yield build_report(arrangement_spec(d, runs, germs))


def _multiplicities(report: InvariantReport, sep: str) -> str:
    """The point multiplicities of a census row, descending, one per point,
    joined by sep: each (multiplicity, count) run's text, count times."""
    runs = report.spec.singularities
    return sep.join(sep.join([str(s.branches)] * c) for s, c in runs)


def _census_row_json(report: InvariantReport) -> str:
    """A census row, an item of the structured census, as the text of
    json.dumps(row, sort_keys=True, indent=2) at the indent of an item: its
    eight keys in sorted order, written straight from the report."""
    failed = [c.name for c in report.failed()]
    at, pad = "\n    ", "    "  # a key's line, and the indent it starts on
    return (
        f'{{{at}"checks_passed": {"false" if failed else "true"},'
        f'{at}"d": {report.spec.d},'
        f'{at}"delta_M": {_json(report.delta_m, pad)},'
        f'{at}"failed_checks": {_json(failed, pad)},'
        f'{at}"mu": {report.derived.mu},'
        f'{at}"multiplicities": [{at}  {_multiplicities(report, "," + at + "  ")}{at}],'
        # the only warnings are shared-line realizability violations
        f'{at}"possibly_unrealizable": {"true" if report.warnings else "false"},'
        f'{at}"table": {_json(report.pairs_full, pad)}\n  }}'
    )


def _census_line(report: InvariantReport) -> str:
    mults = _multiplicities(report, ",")
    flag = "  [possibly-unrealizable]" if report.warnings else ""
    status = "ok" if report.all_passed else "CHECKS-FAILED"
    return (
        f"d={report.spec.d}  mults=({mults})  mu={report.derived.mu}  "
        f"delta_M={report.delta_m}  total={report.pairs_full.total_dim()}  "
        f"checks={status}{flag}"
    )


def _row_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        # the message --lines gives, which argparse words after the type
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {count}")
    return count


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Reader(argparse.ArgumentParser):
    """The parser of the subcommand a call names.  It has no help, reads no
    terminal width and never prints: any error leaves the call to the full
    tree, which words it."""

    def __init__(self, name: str):
        # argparse makes a formatter per argument to check its metavar; it
        # lays out no text here, so any fixed width does
        fmt = partial(argparse.HelpFormatter, width=80)
        super().__init__(prog=f"specpairs {name}", add_help=False, formatter_class=fmt)
        _with_arguments(self, name)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _load_report(path: Path) -> InvariantReport | None:
    """Read, parse and build the report for an input document; None, with the
    reasons on stderr, when any step rejects it."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"malformed document: not UTF-8: {exc}", file=sys.stderr)
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
    # each row is written as soon as it is made, so memory stays flat
    structured = args.format == "structured"
    status, opening = EXIT_OK, "[\n  "
    try:
        for report in census_rows(args.lines, args.max_rows):
            if not report.all_passed:
                status = EXIT_IDENTITY
            if structured:
                sys.stdout.write(opening + _census_row_json(report))
                opening = ",\n  "
            else:
                print(_census_line(report))
    except InvalidSpec as exc:  # a row the work budget refuses ends the census
        sys.stdout.flush()
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return EXIT_INVALID
    if structured:
        print("[]" if opening == "[\n  " else "\n]")
    return status


def _cmd_oracle(args) -> int:
    n, d, m = args.n, args.d, args.m
    try:
        # the brute force's guard refuses a huge enumeration before the
        # engine runs, whose cost also grows with n and d
        brute = milnor_dim_bruteforce(n, d, m)
        engine = milnor_dim(n, d, m)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    print(f"{engine} {brute}")
    return EXIT_OK if engine == brute else EXIT_IDENTITY


_INPUT = (("input",), {"type": Path, "help": "input document (JSON)"})
_FORMAT = (("--format",), {"choices": ("table", "structured"), "default": "table"})

# Each subcommand once: its help line, its arguments as the (names, options)
# of add_argument, and its handler.
_COMMANDS = {
    "compute": ("build the full invariant report", (_INPUT, _FORMAT), _cmd_compute),
    "verify": ("run the cross-checks only", (_INPUT,), _cmd_verify),
    "census": (
        "enumerate line-arrangement weak data",
        (
            (("--lines",), {"type": int, "required": True, "metavar": "D"}),
            (("--max-rows",), {"type": _row_count, "default": None, "metavar": "N"}),
            _FORMAT,
        ),
        _cmd_census,
    ),
    "oracle": (
        "the spectrum engine and a brute-force enumeration side by side",
        (
            (("name",), {"choices": ("milnor-dim",)}),
            (("n",), {"type": int, "metavar": "N"}),
            (("d",), {"type": int, "metavar": "D"}),
            (("m",), {"type": int, "metavar": "M"}),
        ),
        _cmd_oracle,
    ),
}


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Give the parser the arguments of the named subcommand."""
    for names, options in _COMMANDS[name][1]:
        parser.add_argument(*names, **options)


def _build_parser() -> _Parser:
    """The argument parser with every subcommand, the only one that prints."""
    # argparse makes a formatter per argument, each reading the terminal
    # size; the tree reads it once, with argparse's own margin of 2
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser_class = partial(_Parser, formatter_class=fmt)
    # one top-level usage line at any width, however argparse would wrap it
    parser = parser_class(prog="specpairs", description=__doc__.splitlines()[0],
                          usage=f"%(prog)s [-h] {{{','.join(_COMMANDS)}}} ...")
    sub = parser.add_subparsers(
        dest="command", required=True, prog="specpairs", parser_class=parser_class
    )
    for name, (summary, _, _) in _COMMANDS.items():
        _with_arguments(sub.add_parser(name, help=summary), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a valid call is read by its subcommand's _Reader alone; help, no
    # argument, an unknown command, any error and any argument left over go
    # to the full tree, the only parser that prints
    args = None
    if argv and argv[0] in _COMMANDS:
        with contextlib.suppress(argparse.ArgumentError):
            known = argparse.Namespace(command=argv[0])
            args = _Reader(argv[0]).parse_args(argv[1:], known)
    if args is None:
        args = _build_parser().parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        status = handler(args)
        # a reader that closes the pipe early shows here at the latest
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # not a bug: say nothing, and point standard output at the null
        # device so that the interpreter's last flush cannot fail again
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_INVALID
    except Exception as exc:  # a bug: one line, not a traceback
        print(f"specpairs: internal error: {exc!r}", file=sys.stderr)
        return EXIT_IDENTITY
    finally:
        # a census's rows share the angle texts; no call keeps them
        _angle_texts.cache_clear()


if __name__ == "__main__":
    raise SystemExit(main())
