"""Golden outputs: the stdout of the CLI on a fixed corpus stays byte-identical.

Each `tests/golden/<case>.json` is run under `compute --format structured`,
`compute --format table` and `verify`, and compared with the stored
`<case>.<command>.out`; `census7.structured.out` and `census7.table.out`
hold `census --lines 7` in the structured and the table format;
`census --lines 10` in both formats and `census --lines 13 --format
structured` are pinned by their length and sha256;
`help<columns>.<case>.out` hold the help and usage texts at 50 and 200
columns, which tests/test_cli.py compares.
The stored files are data, not expectations to refresh: a difference is a
change of behaviour.
"""

from __future__ import annotations

import hashlib
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


# census --lines 10: 295 rows (census7 has 32), with local pair sums over
# denominators up to 420 (census7: 60) and full tables of up to 36 rows
CENSUS10_STRUCTURED = (
    665_204, "5b8711ef91d5fbf74a6d9c0dda8989c5ca73dbe58bf9ca7444597dd1c152d2c3"
)
CENSUS10_TABLE = (
    45_856, "41956174558bcc2e37f6d7a32aba996565b76f29346e63f4f802df6d2be3e69b"
)
# census --lines 13: the largest census of the benchmark, 8.9 MB
CENSUS13_STRUCTURED = (
    8_860_780, "aebd5cb04638b0ba6506aefd86d06622eaaf03e8fe4fa53ca837e9c963b45485"
)


def test_census10_structured_output_is_pinned(capsys):
    assert main(["census", "--lines", "10", "--format", "structured"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == CENSUS10_STRUCTURED


def test_census10_table_output_is_pinned(capsys):
    assert main(["census", "--lines", "10"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == CENSUS10_TABLE


def test_census13_structured_output_is_pinned(capsys):
    assert main(["census", "--lines", "13", "--format", "structured"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == CENSUS13_STRUCTURED
