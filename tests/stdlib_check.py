"""The golden outputs, census digests and help texts under any interpreter.

    python3.13 tests/stdlib_check.py

Runs each case through `python -m specpairs.cli`, with the interpreter that
runs this script and the `src/` of this checkout first on PYTHONPATH, and
prints every case whose exit status or output differs from what the tests
pin:
- the 21 golden `compute` and `verify` outputs of tests/test_golden.py;
- the three census outputs pinned there by length and sha256;
- the 28 help and usage texts of tests/test_cli.py, at 50 and 200 columns.

The cases are read out of those test files, so both run the same ones.  It
needs only the standard library, so it runs under an interpreter without
pytest, which does not collect it.  Exit status 0 when no case differs, 1
otherwise.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
CENSUS_ARGV = {
    "CENSUS10_STRUCTURED": ["census", "--lines", "10", "--format", "structured"],
    "CENSUS10_TABLE": ["census", "--lines", "10"],
    "CENSUS13_STRUCTURED": ["census", "--lines", "13", "--format", "structured"],
}


def constants(path: Path, names) -> dict:
    """The literal values assigned to the given module-level names of a file."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in names:
                found[name] = ast.literal_eval(node.value)
    return found


def run(argv: list[str], columns: int | None = None) -> tuple[int, bytes, bytes]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    if columns is not None:
        env["COLUMNS"] = str(columns)
    done = subprocess.run([sys.executable, "-m", "specpairs.cli", *argv], env=env,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def first_difference(found: bytes, expected: bytes) -> str:
    """The first line where two outputs differ, both sides."""
    a, b = found.splitlines(), expected.splitlines()
    for i, (x, y) in enumerate(zip([*a, None], [*b, None])):
        if x != y:
            return f"line {i + 1}: found {x!r}, expected {y!r}"
    return "differs in its line endings"


def cases():
    """(name, argv, columns, expected status, expected stdout, expected
    stderr), with a (length, sha256) pair in place of a pinned census's
    stdout."""
    commands = constants(TESTS / "test_golden.py", {"COMMANDS"})["COMMANDS"]
    for doc in sorted(GOLDEN.glob("*.json")):
        for command, argv in commands.items():
            name = f"{doc.stem}.{command}"
            yield (name, [a.format(input=doc) for a in argv], None, 0,
                   (GOLDEN / f"{name}.out").read_bytes(), None)
    digests = constants(TESTS / "test_golden.py", CENSUS_ARGV)
    for name, argv in CENSUS_ARGV.items():
        yield name, argv, None, 0, digests[name], None
    help_cases = constants(TESTS / "test_cli.py", {"HELP_CASES"})["HELP_CASES"]
    for columns in (50, 200):
        for case, argv in help_cases.items():
            text = (GOLDEN / f"help{columns}.{case}.out").read_bytes()
            asks_help = "--help" in argv
            yield (f"help{columns}.{case}", argv, columns, 0 if asks_help else 3,
                   text if asks_help else b"", b"" if asks_help else text)


def main() -> int:
    total = differ = 0
    for name, argv, columns, status, out, err in cases():
        total += 1
        found_status, found_out, found_err = run(argv, columns)
        if isinstance(out, tuple):
            found_out = (len(found_out), hashlib.sha256(found_out).hexdigest())
        problems = []
        if found_status != status:
            problems.append(f"exit status {found_status}, expected {status}")
        for stream, found, expected in (("stdout", found_out, out),
                                        ("stderr", found_err, err)):
            if expected is None or found == expected:
                continue
            if isinstance(expected, tuple):
                problems.append(f"{stream} {found}, expected {expected}")
            else:
                problems.append(f"{stream} {first_difference(found, expected)}")
        if problems:
            differ += 1
            print(f"{name}: " + "; ".join(problems))
    print(f"{sys.version.split()[0]}: {differ} of {total} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
