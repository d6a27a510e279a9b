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
from specpairs.localsing import KINDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specpairs"


def _imports(path: Path):
    """(line, module) of each import in a source file that is not relative
    to the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for line, name in _imports(path):
            top = name.partition(".")[0]
            if top != "specpairs" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{line} imports {name}")
    assert outside == []


def test_only_bounds_and_localsing_import_fractions():
    # their mhat and spectrum are the last Fraction values; once both are
    # deleted the set is empty, and no module imports fractions
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if any(name == "fractions" for _, name in _imports(path))}
    assert importers == {"bounds", "localsing"}


def test_model_imports_no_germ_class_and_names_no_germ_kind():
    # every germ kind is a class in localsing.KINDS, so a new kind edits no model
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    classes = {germ.__name__ for germ in KINDS.values()}
    assert classes == {"Brieskorn", "Explicit", "Ordinary"}
    assert names & classes == set() and strings & set(KINDS) == set()


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
