"""The code in README.md runs as written: every Python block executes, and
the input-format example reads and writes back unchanged."""

from __future__ import annotations

import json
import re
from pathlib import Path

from specpairs import parse_spec, serialize_spec

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_every_python_block_runs():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_the_input_example_round_trips():
    # the example mixes germ kinds on a line arrangement to show the format,
    # so it is only read and written, not validated
    (text,) = _blocks("json")
    spec = parse_spec(text)
    document = json.loads(text)
    for entry in document["singularities"]:
        entry.setdefault("count", 1)
    assert serialize_spec(spec) == document
    assert parse_spec(json.dumps(serialize_spec(spec))) == spec


def test_the_validation_section_names_every_violation_code():
    package = Path(__file__).parent.parent / "src" / "specpairs"
    source = (package / "model.py").read_text(encoding="utf-8")
    codes = set(re.findall(r'Violation\(\s*"(\w+)"', source))
    # a germ kind's own rules give (code, message) pairs, which model wraps
    rules = (package / "localsing.py").read_text(encoding="utf-8")
    codes |= set(re.findall(r'\("(\w+)", f"', rules))
    assert {"builtin_dimension", "explicit_inconsistent"} <= codes
    (section,) = re.findall(r"^### Validation\n(.*?)^#", README, flags=re.M | re.S)
    assert sorted(code for code in codes if f"`{code}`" not in section) == []
