"""The package depends on nothing outside the Python standard library,
imports no module it does not use, and keeps the names the benchmark looks
up."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

from specpairs import CyclotomicFactorization, SpectralPairTable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specpairs"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or relative to the package
            for name in names:
                top = name.partition(".")[0]
                if top != "specpairs" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert outside == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # each CLI call is a fresh process, so every module the package imports
    # is start-up time; these two and what inspect imports cost about 10 ms
    code = ("import sys, specpairs, specpairs.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# The names bench/tracing.py reads from its per-name call counts and times,
# which are plain dicts: deleting or wrapping one of these makes
# `bench/run.py --trace 1` raise KeyError, so this test fails first.
TRACED_FUNCTIONS = {
    "localsing": ("spectrum",),
    "milnor": ("milnor_dim",),
    "bounds": ("mhat",),
    "model": ("parse_spec", "validate"),
    "report": ("build_report", "report_to_dict", "report_to_json", "render_text"),
}


def test_the_names_the_benchmark_traces_are_public_functions():
    for layer, names in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"specpairs.{layer}")
        for name in names:
            obj = vars(module).get(name)
            assert inspect.isfunction(obj), f"{layer}.{name}"
            assert obj.__module__ == module.__name__, f"{layer}.{name}"
    # the tracer counts tables and factorizations through their __init__
    for cls in (SpectralPairTable, CyclotomicFactorization):
        assert "__init__" in vars(cls), cls.__name__
