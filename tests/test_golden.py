"""Golden outputs: the stdout of the CLI on a fixed corpus stays byte-identical.

Each `tests/golden/<case>.json` is run under `compute --format structured`,
`compute --format table` and `verify`, and compared with the stored
`<case>.<command>.out`; `census7.structured.out` and `census7.table.out`
hold `census --lines 7` in the structured and the table format.  The stored
files are data, not expectations to refresh: a difference is a change of
behaviour.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from specpairs.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {
    "compute-structured": ["compute", "{input}", "--format", "structured"],
    "compute-table": ["compute", "{input}", "--format", "table"],
    "verify": ["verify", "{input}"],
}
CASES = [
    (f"{doc.stem}.{command}", [a.format(input=doc) for a in argv])
    for doc in sorted(GOLDEN.glob("*.json"))
    for command, argv in COMMANDS.items()
]
CASES += [
    (f"census7.{fmt}", ["census", "--lines", "7", "--format", fmt])
    for fmt in ("structured", "table")
]


def test_golden_corpus_is_complete():
    assert len(CASES) == 7 * len(COMMANDS) + 2
    for name, _ in CASES:
        assert (GOLDEN / f"{name}.out").is_file(), name


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
