"""Command-line interface: subcommands, formats and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import operator
import os
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest
from helpers import brieskorn_pham_explicit, expand, runs, weak_multisets

from specpairs import (
    CyclotomicFactorization,
    HypersurfaceSpec,
    build_report,
    cli,
    model,
    parse_spec,
    report_to_dict,
    serialize_spec,
)
from specpairs.cli import arrangement_spec, census_rows, main
from specpairs.localsing import Brieskorn, Ordinary
from specpairs.pairs import _angle_texts

GOLDEN = Path(__file__).parent / "golden"

THREE_GENERIC_LINES_DOC = {
    "ambient_dim": 2,
    "degree": 3,
    "components": 3,
    "line_arrangement": True,
    "singularities": [{"kind": "ordinary", "multiplicity": 2, "count": 3}],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(document, name="input.json"):
        path = tmp_path / name
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            text = document if isinstance(document, str) else json.dumps(document)
            path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _value_paths(value, prefix=()):
    """Paths to every value nested in a JSON document, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def _replaced(document, path, new):
    if not path:
        return new
    out = copy.deepcopy(document)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


def test_compute_table_format(spec_file, capsys):
    assert main(["compute", spec_file(THREE_GENERIC_LINES_DOC)]) == 0
    out = capsys.readouterr().out
    assert "delta_M = Phi(1)^6 * Phi(3)" in out
    assert "PASS  degree_identity" in out


def test_compute_structured_format(spec_file, capsys):
    assert main(
        ["compute", spec_file(THREE_GENERIC_LINES_DOC), "--format", "structured"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta_M"]["factors"] == [[1, 6], [3, 1]]
    assert all(c["passed"] for c in data["checks"])


def test_verify_passes(spec_file, capsys):
    assert main(["verify", spec_file(THREE_GENERIC_LINES_DOC)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(out.strip().splitlines())


def test_verify_exit_one_on_validation_failure(spec_file, capsys):
    doc = dict(THREE_GENERIC_LINES_DOC, components=5)
    del doc["line_arrangement"]  # five components of a cubic are no lines
    assert main(["verify", spec_file(doc)]) == 1
    assert "too_many_components" in capsys.readouterr().err


def test_verify_exit_one_on_bad_delta_u(spec_file, capsys):
    doc = dict(
        THREE_GENERIC_LINES_DOC,
        delta_U={"unit": "1/1", "t_power": 0, "factors": [[2, 1]]},
    )
    assert main(["verify", spec_file(doc)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _rhm_surface_doc(d, exponents):
    germ = brieskorn_pham_explicit(exponents)  # grF_dims read off its pairs
    return serialize_spec(
        HypersurfaceSpec(n=len(exponents) - 1, d=d, components=1,
                         singularities=((germ, 1),), rational_homology_manifold=True)
    )


def _without_grf(doc):
    doc = copy.deepcopy(doc)
    for singularity in doc["singularities"]:
        del singularity["grF_dims"]
    return doc


CUSPIDAL_CUBIC_EXPLICIT_DOC = {
    "ambient_dim": 2,
    "degree": 3,
    "components": 1,
    "singularities": [
        {
            "kind": "explicit",
            "milnor_number": 2,
            "branches": 1,
            "alexander": {"unit": "1/1", "t_power": 0, "factors": [[6, 1]]},
            "spectral_pairs": [[0, 1, "5/6", 1], [1, 0, "1/6", 1]],
            "grF_dims": [[0, 1], [1, 1]],
        }
    ],
}


def _cusp_with(**changes):
    cusp = CUSPIDAL_CUBIC_EXPLICIT_DOC["singularities"][0]
    return dict(CUSPIDAL_CUBIC_EXPLICIT_DOC, singularities=[dict(cusp, **changes)])


def _cusp_without(*keys, **changes):
    doc = _cusp_with(**changes)
    for key in keys:
        del doc["singularities"][0][key]
    return doc


def _golden_with(name, where, new):
    document = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    return _replaced(document, where, new)


@pytest.mark.parametrize(
    "doc, code",
    [
        ({"ambient_dim": 2, "degree": 1, "components": 1}, "degree"),
        # consistent pairs, but two spectral numbers below 1 where the smooth
        # quartic surface has h^{2,0} = 1
        (_rhm_surface_doc(4, (3, 4, 5)), "rhm_inconsistent"),
        # the same document without grF_dims: the filtration read off its
        # pairs is just as oversized
        (_without_grf(_rhm_surface_doc(4, (3, 4, 5))), "rhm_inconsistent"),
        (
            _golden_with("nodal_cubic_surface", ("singularities", 0, "grF_dims"),
                         [[1, 2]]),
            "explicit_inconsistent",
        ),
        (_golden_with("cuspidal_cubic", ("ambient_dim",), 1), "zero_dimensional"),
        (
            {"ambient_dim": 1, "degree": 5, "components": 1,
             "singularities": [{"kind": "brieskorn", "exponents": [3, 3]}]},
            "zero_dimensional",
        ),
        # sums and products of document integers with more than 4,300
        # digits, which str refuses to convert
        (dict(_cusp_with(branches=10**4299, count=5000), degree=101),
         "negative_count"),
        (dict(_cusp_with(milnor_number=10**4299, count=10**4299), degree=5),
         "negative_mu"),
        (_cusp_with(spectral_pairs=[[0, 1, "5/6", 9 * 10**4299],
                                    [1, 0, "1/6", 9 * 10**4299]]),
         "explicit_inconsistent"),
        (_cusp_with(alexander={"factors": [[6, 9 * 10**4299]]}),
         "explicit_inconsistent"),
        # the Milnor number read off these pairs has 4,301 digits
        (_cusp_without("milnor_number", spectral_pairs=[[0, 1, "5/6", 9 * 10**4299],
                                                        [1, 0, "1/6", 9 * 10**4299]]),
         "explicit_inconsistent"),
    ],
    ids=["degree_one", "rhm_oversized_grf", "rhm_missing_grf", "grf_mismatch",
         "cusp_at_n0", "brieskorn_at_n0", "oversized_branch_excess",
         "oversized_milnor_total", "oversized_pair_mass",
         "oversized_alexander_degree", "oversized_pair_mass_without_milnor"],
)
@pytest.mark.parametrize("command", ["compute", "verify"])
def test_documents_that_used_to_crash_end_as_violations(
    spec_file, capsys, doc, code, command
):
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"] {code}: " in err


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_explicit_pairs_outside_the_hodge_range_are_a_violation(
    spec_file, capsys, command
):
    # symmetric under both maps and of the right mass and eigenvalues, so
    # only the range 0 <= p, q <= n rejects it; it used to pass validation
    # and end on two failed identity checks with exit 2
    cusp = dict(CUSPIDAL_CUBIC_EXPLICIT_DOC["singularities"][0],
                spectral_pairs=[[-1, 2, "5/6", 1], [2, -1, "1/6", 1]])
    del cusp["grF_dims"]
    doc = dict(CUSPIDAL_CUBIC_EXPLICIT_DOC, singularities=[cusp])
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "[error] explicit_inconsistent: explicit singularity (mu=2): spectral "
        "pair (-1, 2, 5/6) lies outside 0 <= p, q <= 1\n"
    )


@pytest.mark.parametrize("command", [["verify"], ["compute", "--format", "structured"]])
def test_oversized_delta_u_square_is_a_failed_input_check(spec_file, capsys, command):
    # delta_U^2 has a multiplicity of 4,301 digits, which str refuses to
    # convert: the failure names only the order where it falls short
    doc = _golden_with("three_generic_lines", ("delta_U",),
                       {"factors": [[1, 9 * 10**4299]]})
    assert main([command[0], spec_file(doc), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    detail = "delta_U^2 does not divide delta_M: multiplicity too high at Phi(1)"
    if command == ["verify"]:
        assert out.splitlines()[-1] == f"FAIL  delta_u_consistent  ({detail})"
    else:
        check = json.loads(out)["checks"][-1]
        assert check == {"name": "delta_u_consistent", "passed": False,
                         "kind": "input", "detail": detail}


HUGE_DELTA_U_UNIT = _golden_with("delta_u_concurrent_lines", ("delta_U", "unit"),
                                 "1/" + "7" * 3000)


@pytest.mark.parametrize(
    "doc, command",
    [
        # e(t) would carry 1/unit^2, a denominator of 6,000 digits
        (HUGE_DELTA_U_UNIT, "verify"),
        (HUGE_DELTA_U_UNIT, "compute"),
        # delta_M would carry the germ's unit to the power 10^6
        (dict(_cusp_with(alexander={"unit": "2/1", "factors": [[6, 1]]}, count=10**6),
              degree=1500), "compute"),
    ],
    ids=["delta_u_unit_verify", "delta_u_unit_compute", "germ_unit_to_a_huge_count"],
)
def test_units_are_dropped_from_delta_m_and_the_error_term(
    spec_file, capsys, doc, command
):
    # Alexander polynomials are defined up to units, so the report ignores them
    assert main([command, spec_file(doc)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "FAIL" not in out
    if command == "compute":
        assert "delta_M = Phi(1)^" in out


def test_unexpected_errors_end_in_one_line_and_exit_two(
    spec_file, capsys, monkeypatch
):
    def broken(spec):
        raise RuntimeError("broken route\nsecond line")

    monkeypatch.setattr(cli, "build_report", broken)
    for command in ("compute", "verify"):
        assert main([command, spec_file(THREE_GENERIC_LINES_DOC)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # one line: the message's newline is escaped
        assert err == (
            "specpairs: internal error: RuntimeError('broken route\\nsecond line')\n"
        )
    # usage errors still leave through SystemExit with their own status
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 3


def test_rhm_document_without_grf_dims_gets_the_tables_of_derived_ones(
    spec_file, capsys
):
    # dim Gr_F^p is read off the pair table, so grF_dims are optional
    with_grf = _rhm_surface_doc(3, (2, 2, 2))
    without_grf = _without_grf(with_grf)
    tables = []
    for doc in (without_grf, with_grf):
        assert main(["compute", spec_file(doc), "--format", "structured"]) == 0
        tables.append(json.loads(capsys.readouterr().out)["tables"])
    assert tables[0]["weights_resolved"]
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "doc",
    [
        {"ambient_dim": 2, "degree": 10**6, "components": 1},
        {"ambient_dim": 2, "degree": 2100, "components": 1,
         "singularities": [{"kind": "brieskorn", "exponents": [2000, 2001]}]},
        {"ambient_dim": 1001, "degree": 3, "components": 1},
        {"ambient_dim": 10**9, "degree": 3, "components": 1},
        {"ambient_dim": 10**2000, "degree": 3, "components": 1},
        # cyclotomic and validate would take the totient of 10^7
        {"ambient_dim": 2, "degree": 3, "components": 1,
         "singularities": [{"kind": "explicit",
                            "spectral_pairs": [[0, 1, "1/10000000", 1]]}]},
    ],
    ids=["smooth_curve_degree_1e6", "brieskorn_2000_2001", "smooth_n1000_cubic",
         "ambient_dim_1e9", "ambient_dim_2001_digits", "explicit_order_1e7"],
)
def test_slow_documents_end_as_budget_exceeded(spec_file, capsys, monkeypatch, doc):
    # each would run from 20 s to hours; the estimate rejects it at once,
    # before any derivation
    def refuse(spec):
        raise AssertionError("derived quantities of an over-budget spec")

    monkeypatch.setattr(model, "derived_quantities", refuse)
    start = time.perf_counter()
    assert main(["verify", spec_file(doc)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "] budget_exceeded: " in err


@pytest.mark.parametrize(
    "singularity",
    [
        {"kind": "ordinary", "multiplicity": 2, "count": 10**9},
        {"kind": "ordinary", "multiplicity": 10**5},
    ],
    ids=["huge_count", "huge_multiplicity"],
)
def test_over_budget_documents_end_as_negative_mu_before_derivation(
    spec_file, capsys, monkeypatch, singularity
):
    # deriving these would enumerate 10^9 points or 10^10 spectrum entries
    def refuse(spec):
        raise AssertionError("derived quantities of an over-budget spec")

    monkeypatch.setattr(model, "derived_quantities", refuse)
    doc = {"ambient_dim": 2, "degree": 3, "components": 1,
           "singularities": [singularity]}
    assert main(["compute", spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "] negative_mu: " in err


def test_a_given_alexander_polynomial_is_compared_not_enumerated(spec_file, capsys):
    # Phi(10^7) differs from the polynomial of the empty table; none of its
    # eigenvalues is listed, so the violation comes at once
    doc = {"ambient_dim": 2, "degree": 3, "components": 1,
           "singularities": [{"kind": "explicit", "milnor_number": 2, "branches": 1,
                              "alexander": {"factors": [[10**7, 1]]},
                              "spectral_pairs": []}]}
    start = time.perf_counter()
    assert main(["verify", spec_file(doc)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "] explicit_inconsistent: " in err and "budget_exceeded" not in err


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_a_table_whose_angles_are_not_galois_stable_is_inconsistent(
    spec_file, capsys, command
):
    # 1/5 and 4/5 without 2/5 and 3/5: symmetric and of a consistent mass,
    # but no rational polynomial has just these eigenvalues
    doc = dict(CUSPIDAL_CUBIC_EXPLICIT_DOC, singularities=[
        {"kind": "explicit", "spectral_pairs": [[0, 1, "1/5", 1], [1, 0, "4/5", 1]]},
    ])
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "[error] explicit_inconsistent: explicit singularity: eigenvalues of the "
        "local Alexander polynomial differ from the eigenvalue marginal of the "
        "pair table\n"
    )


OPTIONAL_EXPLICIT_FIELDS = ("milnor_number", "branches", "alexander", "grF_dims")


@pytest.mark.parametrize("name", ["nodal_cubic_surface", "hd_quartic_surface",
                                  "cuspidal_cubic_explicit"])
def test_omitted_explicit_fields_change_nothing(spec_file, capsys, name):
    # every field but spectral_pairs is read off the pairs when it is absent;
    # the spec echo writes only the fields that the document gave
    if name == "cuspidal_cubic_explicit":
        full = CUSPIDAL_CUBIC_EXPLICIT_DOC
    else:
        full = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))

    def outputs(doc):
        path = spec_file(doc)
        runs = []
        for argv in (["compute", path], ["compute", path, "--format", "structured"],
                     ["verify", path]):
            runs.append((main(argv), capsys.readouterr()))
        return runs

    def without(doc, keys):
        doc = copy.deepcopy(doc)
        for germ in doc["singularities"]:
            for key in keys:
                germ.pop(key, None)
        return doc

    want = outputs(full)
    want_report = json.loads(want[1][1].out)
    for size in range(1, len(OPTIONAL_EXPLICIT_FIELDS) + 1):
        for dropped in itertools.combinations(OPTIONAL_EXPLICIT_FIELDS, size):
            got = outputs(without(full, dropped))
            assert [got[0], got[2]] == [want[0], want[2]], dropped
            assert got[1][0] == want[1][0]
            report = json.loads(got[1][1].out)
            assert report.pop("spec") == without(want_report["spec"], dropped)
            assert report == {k: v for k, v in want_report.items() if k != "spec"}


def _three_generic_lines_with(**changes):
    return dict(THREE_GENERIC_LINES_DOC, **changes)


def _ordinary(multiplicity):
    return [{"kind": "ordinary", "multiplicity": multiplicity, "count": 3}]


def _cusp_with_alexander(**changes):
    cusp = CUSPIDAL_CUBIC_EXPLICIT_DOC["singularities"][0]
    return _cusp_with(alexander=dict(cusp["alexander"], **changes))


def _explicit_nodes(**changes):
    node = {
        "kind": "explicit", "milnor_number": 1, "branches": 2,
        "alexander": {"unit": "1/1", "t_power": 0, "factors": [[1, 1]]},
        "spectral_pairs": [[1, 1, "0/1", 1]], "grF_dims": [[1, 1]], "count": 3,
    }
    return {"singularities": [dict(node, **changes)]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_three_generic_lines_with(singularities=_ordinary(2.7)), "got 2.7"),
        (_three_generic_lines_with(singularities=_ordinary("2")), "got '2'"),
        (_three_generic_lines_with(singularities=_ordinary(True)), "got True"),
        (
            _three_generic_lines_with(
                singularities=[{"kind": "ordinary", "multiplicity": 2, "count": 3.0}]
            ),
            "got 3.0",
        ),
        (
            _three_generic_lines_with(
                singularities=[{"kind": "brieskorn", "exponents": [2, 3.0]}],
            ),
            "got 3.0",
        ),
        (_three_generic_lines_with(**_explicit_nodes(milnor_number=1.0)), "got 1.0"),
        (_three_generic_lines_with(**_explicit_nodes(branches="2")), "got '2'"),
        (_three_generic_lines_with(**_explicit_nodes(grF_dims=[[1, 1.5]])), "got 1.5"),
        (_three_generic_lines_with(hD=[[1, 1, False]]), "got False"),
        (
            _three_generic_lines_with(delta_U={"factors": [[1, -2]], "formal": True}),
            "not a formal bound",
        ),
        (
            _three_generic_lines_with(delta_U={"factors": [[1, 2]], "formal": True}),
            "not a formal bound",
        ),
        (
            _three_generic_lines_with(delta_U={"factors": [[1, -2]]}),
            "negative multiplicities",
        ),
        (
            _three_generic_lines_with(
                **_explicit_nodes(
                    alexander={"unit": "1/1", "t_power": 0.5, "factors": [[1.9, 1]]},
                    spectral_pairs=[[1, 1, "0/1", 1.5]],
                )
            ),
            "got 0.5",
        ),
        (
            _three_generic_lines_with(
                **_explicit_nodes(alexander={"factors": [[1.9, 1]]})
            ),
            "got 1.9",
        ),
        (
            _three_generic_lines_with(
                **_explicit_nodes(spectral_pairs=[[1, 1, "0/1", 1.5]])
            ),
            "got 1.5",
        ),
        (
            _three_generic_lines_with(
                **_explicit_nodes(spectral_pairs=[[1.0, 1, "0/1", 1]])
            ),
            "got 1.0",
        ),
        (
            _three_generic_lines_with(
                **_explicit_nodes(spectral_pairs=[[1, 1, 0.0, 1]])
            ),
            "as an exact rational",
        ),
        (_three_generic_lines_with(line_arrangement="false"), "got 'false'"),
        (
            dict(CUSPIDAL_CUBIC_EXPLICIT_DOC, rational_homology_manifold="no"),
            "got 'no'",
        ),
        (_three_generic_lines_with(line_arrangement=None), "got None"),
        (_cusp_with_alexander(formal="false"), "got 'false'"),
        (_cusp_with_alexander(formal=True), "not a formal bound"),
        (_cusp_with_alexander(factors=[[6, 1], [6, 1]]), "order 6 is given twice"),
        (
            _three_generic_lines_with(delta_U={"factors": [[1, 1], [1, 1]]}),
            "order 1 is given twice",
        ),
        (_cusp_with_alexander(unit="1/0"), "'1/0' as an exact rational"),
        (
            {"ambient_dim": 2, "degree": 10, "components": 1,
             "hD": [[1, 1, 5], [1, 1, 0]]},
            "Hodge type (1, 1) is given twice",
        ),
        (
            _cusp_with(spectral_pairs=[[0, 1, "5/6", 1], [1, 0, "1/6", 2],
                                       [1, 0, "2/12", -1]]),
            "spectral pair (1, 0, 1/6) is given twice",
        ),
        (_three_generic_lines_with(singularities={}), "expected an array, got {}"),
        (_three_generic_lines_with(singularities=None), "expected an array, got None"),
        (_three_generic_lines_with(delta_U=[]), "expected an object, got []"),
        (_cusp_with(alexander=None), "expected an object, got None"),
        (_cusp_with_alexander(factors={}), "expected an array, got {}"),
        (_three_generic_lines_with(hD={}), "expected an array, got {}"),
        (_cusp_with(spectral_pairs={}), "expected an array, got {}"),
        (_cusp_with(spectral_pairs="abcd"), "expected an array, got 'abcd'"),
        (
            _cusp_with(spectral_pairs=[{"p": 0, "q": 1, "alpha": "5/6", "n": 1}]),
            "expected an array, got {'p': 0",
        ),
        # the formal flag is refused before the constructor's checks
        (_cusp_with_alexander(formal=True, factors=[[0, 1]]), "not a formal bound"),
        (_cusp_with_alexander(formal=True, unit="0/1"), "not a formal bound"),
        ('{"singularities": ' + "[" * 100_000, "maximum recursion depth"),
        ('{"degree": ' + "9" * 5000 + "}", "Exceeds the limit"),
        (b'{"ambient_dim": 2, "degree": 3, "components": 1, "name": "\xe9"}',
         "not UTF-8"),
        # the later value is the valid one, which a reader must not keep
        ('{"degree": 4, ' + json.dumps(THREE_GENERIC_LINES_DOC)[1:],
         "key 'degree' is given twice"),
        # a fixed-width row is an array of its width, not unpacked
        (_three_generic_lines_with(hD=[[1, 1]]),
         "bad hD: expected an array of 3 entries, got 2"),
        (_three_generic_lines_with(hD=[{"1": 0, "2": 0, "3": 0}]),
         "bad hD: expected an array, got {'1': 0"),
        (
            _three_generic_lines_with(
                singularities=[{"kind": "brieskorn", "exponents": [2, 3, 4]}],
            ),
            "expected an array of 2 entries, got 3",
        ),
        (_three_generic_lines_with(**_explicit_nodes(grF_dims=[[1]])),
         "expected an array of 2 entries, got 1"),
        # a repeated level is not dropped, even with a zero dimension
        (_three_generic_lines_with(**_explicit_nodes(grF_dims=[[1, 1], [1, 0]])),
         "filtration level 1 is given twice"),
        # only delta_U and hD read null as absent
        (_three_generic_lines_with(**_explicit_nodes(grF_dims=None)),
         "bad 'explicit' singularity entry: expected an array, got None"),
        (_cusp_with_alexander(factors=[{"6": 1}]), "expected an array, got {'6': 1}"),
        (_cusp_with(spectral_pairs=[[0, 1, "5/6"]]),
         "expected an array of 4 entries, got 3"),
        # a misspelled key is not skipped, nor an absent field derived
        (
            {"ambient_dim": 2, "degree": 3, "components": 1,
             "singularities": [{"kind": "brieskorn", "exponents": [2, 3], "cout": 3}]},
            "bad 'brieskorn' singularity entry: unknown key 'cout'",
        ),
        (_cusp_with(alexandr={"factors": [[6, 1]]}),
         "bad 'explicit' singularity entry: unknown key 'alexandr'"),
        (_three_generic_lines_with(singularities=[
            {"kind": "ordinary", "multiplicity": 2, "count": 3, "exponents": [2, 2]}]),
         "bad 'ordinary' singularity entry: unknown key 'exponents'"),
        # an unknown kind is named before any of its keys is read
        (_three_generic_lines_with(singularities=[{"kind": "tacnode", "count": "x"}]),
         "unknown singularity kind 'tacnode'"),
        # the flag is derived: a given value must be the one the shape makes
        (_golden_with("three_generic_lines", ("line_arrangement",), False),
         "bad line_arrangement: got false, but ambient_dim, degree and "
         "components make it true"),
        (_golden_with("cuspidal_cubic", ("line_arrangement",), True),
         "bad line_arrangement: got true, but ambient_dim, degree and "
         "components make it false"),
    ],
    ids=[
        "float_multiplicity", "string_multiplicity", "bool_multiplicity", "float_count",
        "float_exponent", "float_milnor_number", "string_branches",
        "float_grf_dim", "bool_hd_count", "formal_negative_delta_u",
        "formal_delta_u", "negative_delta_u", "float_explicit_germ",
        "float_factor_order", "float_pair_count", "float_pair_hodge_index",
        "float_pair_angle", "string_line_arrangement_flag", "string_rhm_flag",
        "null_line_arrangement_flag", "string_formal_flag", "formal_germ",
        "repeated_germ_order", "repeated_delta_u_order", "zero_denominator_unit",
        "repeated_hd_type", "repeated_pair_key",
        "object_singularities", "null_singularities", "array_delta_u",
        "null_alexander", "object_factors", "object_hd",
        "object_spectral_pairs", "string_spectral_pairs", "object_spectral_pair_row",
        "formal_germ_order_zero", "formal_germ_zero_unit", "deeply_nested",
        "integer_of_5000_digits", "not_utf8", "repeated_key",
        "short_hd_row", "object_hd_row", "three_exponents", "short_grf_row",
        "repeated_grf_level", "null_grf_dims",
        "object_factor_row", "short_pair_row", "misspelled_count",
        "misspelled_alexander", "key_of_another_kind", "unknown_kind_bad_count",
        "false_line_arrangement_flag", "true_line_arrangement_flag",
    ],
)
@pytest.mark.parametrize("command", ["compute", "verify"])
def test_documents_are_read_strictly(spec_file, capsys, doc, message, command):
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "malformed document: " in err and message in err


# forms of a rational outside README's grammar, a JSON integer or "a/b" of
# ASCII digits with an optional leading minus
REFUSED_RATIONALS = ["0.5", "1e-1", " 1/2 ", "+1/3", "1_0/30", "3", "\u0661/\u0662"]


@pytest.mark.parametrize("unit", REFUSED_RATIONALS)
def test_a_unit_outside_the_grammar_makes_a_document_malformed(spec_file, capsys, unit):
    # the unit is checked and dropped: with "1/1" the document has a report
    assert main(["verify", spec_file(_cusp_with_alexander(unit="1/1"))]) == 0
    capsys.readouterr()
    assert main(["verify", spec_file(_cusp_with_alexander(unit=unit))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"malformed document: bad 'explicit' singularity entry: "
                   f"cannot interpret {unit!r} as an exact rational\n")


@pytest.mark.parametrize("angle", ["+5/6", " 5/6 ", "5_0/60", "\u0665/\u0666", "5/6\n"])
def test_an_angle_outside_the_grammar_makes_a_document_malformed(
    spec_file, capsys, angle
):
    # each angle is a form of 5/6 outside the grammar
    doc = _cusp_with(spectral_pairs=[[0, 1, angle, 1], [1, 0, "1/6", 1]])
    assert main(["verify", spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cannot interpret {angle!r} as an exact rational" in err


def test_negative_hd_count_is_a_violation(spec_file, capsys):
    doc = json.loads(
        (Path(__file__).parent / "golden" / "hd_quartic_surface.json").read_text()
    )
    doc["hD"] = [[1, 1, -5]]
    assert main(["verify", spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "[error] negative_hd: hD row [1, 1, -5] has a negative count" in err


@pytest.mark.parametrize("command", [["verify"], ["compute", "--format", "structured"]])
def test_hd_row_outside_the_hodge_range_is_a_violation(spec_file, capsys, command):
    doc = json.loads((GOLDEN / "hd_quartic_surface.json").read_text(encoding="utf-8"))
    doc["hD"].append([7, -5, 4])
    assert main([command[0], spec_file(doc), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ("[error] hd_hodge_type: hD row [7, -5, 4] has a Hodge type outside "
            "0 <= p, q <= n + 1, n = 2") in err
    # the range ends at n + 1: the corner types (0, n + 1) and (n + 1, 0) pass
    doc["hD"][-1:] = [[0, 3, 1], [3, 0, 1]]
    assert main([command[0], spec_file(doc), *command[1:]]) == 0


@pytest.mark.parametrize(
    "command", [["compute", "--format", "structured"], ["compute"], ["verify"]]
)
def test_units_and_powers_of_t_are_dropped_from_end_to_end(spec_file, capsys, command):
    def document(delta_u_unit, delta_u_t_power, germ_unit, germ_t_power):
        alexander = {"unit": germ_unit, "t_power": germ_t_power, "factors": [[6, 1]]}
        return dict(_cusp_with(alexander=alexander), delta_U={
            "unit": delta_u_unit, "t_power": delta_u_t_power, "factors": [[6, 1]]})

    outputs = []
    for doc in (document("-3/4", 5, "2/1", -1), document("1/1", 0, "1/1", 0)):
        status = main([command[0], spec_file(doc), *command[1:]])
        outputs.append((status, capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_compute_exit_one_on_malformed(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["compute", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_compute_missing_file(capsys):
    assert main(["compute", "/nonexistent/x.json"]) == 1


def test_usage_error_exit_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


@pytest.mark.parametrize(
    "command", [[], ["compute"], ["verify"], ["census"], ["oracle"]],
    ids=["specpairs", "compute", "verify", "census", "oracle"],
)
def test_help_exits_zero_with_usage_on_stdout(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: specpairs", *command]))
    assert err == ""


# a case whose argv asks for --help prints on stdout and exits 0; every
# other one is a usage error, printed on stderr with exit 3, by the
# top-level parser (bogus, empty, double-dash and the *-option and *-extra
# cases) or by a subcommand's (verify-input, census-max-rows-*)
HELP_CASES = {
    "specpairs": ["--help"],
    "compute": ["compute", "--help"],
    "census": ["census", "--help"],
    "oracle": ["oracle", "--help"],
    "bogus": ["bogus"],
    "empty": [],
    "compute-option": ["compute", "x.json", "--bogus"],
    "census-extra": ["census", "--lines", "3", "extra"],
    "verify-input": ["verify"],
    "census-max-rows-negative": ["census", "--lines", "3", "--max-rows", "-1"],
    "census-max-rows-text": ["census", "--lines", "3", "--max-rows", "x"],
    # COLUMNS=<columns> PYTHONPATH=src python3 -m specpairs.cli compute x.json extra
    "compute-extra": ["compute", "x.json", "extra"],
    # COLUMNS=<columns> PYTHONPATH=src python3 -m specpairs.cli \
    #     oracle milnor-dim 1 3 1 9
    "oracle-extra": ["oracle", "milnor-dim", "1", "3", "1", "9"],
    # COLUMNS=<columns> PYTHONPATH=src python3 -m specpairs.cli -- verify x.json
    "double-dash": ["--", "verify", "x.json"],
}


@pytest.mark.parametrize("columns", [50, 200])
@pytest.mark.parametrize("case", HELP_CASES)
def test_help_and_usage_texts_are_pinned_at_any_width(
    capsys, monkeypatch, case, columns
):
    # COLUMNS sets the width; golden/help<columns>.<case>.out hold the texts
    # argparse lays out at that width with its default formatter, recorded
    # from the root of the repository with
    #   COLUMNS=<columns> PYTHONPATH=src python3 -m specpairs.cli <argv> \
    #       >tests/golden/help<columns>.<case>.out   (2> for a usage error)
    monkeypatch.setenv("COLUMNS", str(columns))
    argv = HELP_CASES[case]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    asks_help = "--help" in argv
    text, silent = (out, err) if asks_help else (err, out)
    assert (info.value.code, silent) == (0 if asks_help else 3, "")
    assert text == (GOLDEN / f"help{columns}.{case}.out").read_text(encoding="utf-8")


def test_repeated_calls_in_one_process_equal_fresh_calls(capsys):
    doc = str(GOLDEN / "cuspidal_cubic.json")
    calls = [
        ["compute", doc, "--format", "structured"],
        ["verify", doc],
        ["census", "--lines", "6", "--max-rows", "3"],
        ["compute", doc, "--format", "table"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    fresh = [
        subprocess.run([sys.executable, "-m", "specpairs.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=60)
        for argv in calls
    ]
    for _ in range(2):
        for argv, done in zip(calls, fresh):
            status = main(argv)
            assert (status, capsys.readouterr().out) == (done.returncode, done.stdout)


CUSPIDAL_CUBIC = str(GOLDEN / "cuspidal_cubic.json")


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["compute", CUSPIDAL_CUBIC, "--format", "structured"], 1),
        (["compute", CUSPIDAL_CUBIC], 1),
        (["verify", CUSPIDAL_CUBIC], 1),
        (["census", "--lines", "4", "--max-rows", "1"], 1),
        (["oracle", "milnor-dim", "1", "3", "1"], 1),
        (["--help"], 5),
        (["bogus"], 5),
        ([], 5),
        (["compute", "x.json", "--bogus"], 6),
        (["census", "--lines", "3", "extra"], 6),
        (["compute", "x.json", "--format", "bogus"], 6),
        (["verify", "--help"], 6),
    ],
)
def test_a_call_builds_the_parser_of_the_subcommand_it_names(
    monkeypatch, capsys, argv, parsers
):
    # a valid call is read by the named subcommand's _Reader alone; one the
    # reader refuses or leaves an argument over is worded by the full tree
    # of five after it, and help, no argument or an unknown command build
    # that tree only
    built = []
    true_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        true_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    if parsers == 1:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == (0 if "--help" in argv else 3)
    expected = {1: [cli._Reader], 5: [cli._Parser] * 5,
                6: [cli._Reader] + [cli._Parser] * 5}
    assert built == expected[parsers]


@pytest.mark.parametrize("argv", [
    ["compute", "x.json", "--format", "bogus"],
    ["census", "--lines", "x"],
    ["census", "--lines", "3", "--max-rows", "-1"],
    ["oracle", "milnor-dim", "1", "3"],
    ["compute", "x.json", "-h"],
    ["verify", "--help"],
], ids=["format-choice", "lines-text", "max-rows-negative", "oracle-short",
        "compute-h", "verify-help"])
def test_the_reader_never_prints(monkeypatch, capsys, argv):
    # every text these calls print comes from the full tree: the same
    # status, stdout and stderr as the full tree alone
    with pytest.raises(SystemExit) as info:
        cli._build_parser().parse_args(argv)
    alone = (info.value.code, capsys.readouterr())

    def refuse(*args, **kwargs):
        raise AssertionError("the reader printed")

    monkeypatch.setattr(cli._Reader, "_print_message", refuse)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert (info.value.code, capsys.readouterr()) == alone


def test_an_abbreviated_option_is_read_by_the_lone_parser(capsys):
    reader = cli._Reader("compute")
    assert reader.parse_args([CUSPIDAL_CUBIC, "--form", "structured"]).format == (
        "structured")
    assert main(["compute", CUSPIDAL_CUBIC, "--form", "structured"]) == 0
    abbreviated = capsys.readouterr()
    assert main(["compute", CUSPIDAL_CUBIC, "--format", "structured"]) == 0
    assert abbreviated == capsys.readouterr()


@pytest.mark.parametrize("lines", ["1", "0", "-3"])
def test_a_census_of_fewer_than_two_lines_is_refused(capsys, lines):
    assert main(["census", "--lines", lines]) == 1
    assert capsys.readouterr() == ("", "census requires at least 2 lines\n")


def test_a_reader_that_closes_the_pipe_early_is_not_a_bug():
    # census --lines 12 writes about 230 KB, more than a pipe holds, so the
    # census is still writing when the reader has gone
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    with subprocess.Popen(
        [sys.executable, "-m", "specpairs.cli", "census", "--lines", "12"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as census:
        assert census.stdout.readline().startswith(b"d=12  mults=(2,2,")
        census.stdout.close()
        assert (census.wait(timeout=60), census.stderr.read()) == (1, b"")


def test_a_reader_gone_before_the_last_flush_is_not_a_bug():
    # block-buffered, a short output first meets the closed pipe when main
    # flushes it, not at the interpreter's exit
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        argv = ["oracle", "milnor-dim", "1", "3", "1"]
        done = subprocess.run([sys.executable, "-m", "specpairs.cli", *argv], env=env,
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", CUSPIDAL_CUBIC, "--format", "structured"],
        ["compute", CUSPIDAL_CUBIC],
        ["census", "--lines", "6", "--format", "structured"],
    ],
)
def test_no_angle_texts_outlive_a_call(capsys, argv):
    assert main(argv) == 0
    assert _angle_texts.cache_info().currsize == 0


def test_oracle(capsys):
    assert main(["oracle", "milnor-dim", "1", "3", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2 2"


@pytest.mark.parametrize(
    "args",
    # the last one also makes the closed form slow (6 s), so it must not run
    [("10000000", "3", "5"), ("10000000", "2", "5"), ("5000", "3", "5000")],
    ids=["3", "2", "5000-3-5000"],
)
def test_oracle_refuses_a_huge_enumeration_at_once(capsys, args):
    start = time.perf_counter()
    assert main(["oracle", "milnor-dim", *args]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "enumerating (d-1)^(n+1) tuples of n+1 exponents exceeds 10000000 steps\n"
    )


def test_weak_multisets_for_three_lines():
    assert list(weak_multisets(3)) == [(2, 2, 2), (3,)]


def test_weak_multisets_for_four_lines():
    assert list(weak_multisets(4)) == [(2, 2, 2, 2, 2, 2), (3, 2, 2, 2), (3, 3), (4,)]


def test_census_rows_checks_pass_and_flag_unrealizable():
    reports = list(census_rows(4))
    mults = [expand(r.spec) for r in reports]
    assert mults == list(weak_multisets(4))
    assert all(r.all_passed for r in reports)
    flagged = [expand(r.spec) for r in reports if r.warnings]
    assert flagged == [(3, 3)]
    for report in reports:
        assert report.pairs_full.total_dim() == 2 * (4 - 1) ** 2
        assert report.delta_m.degree == 2 * (4 - 1) ** 2


def test_census_cli(capsys):
    assert main(["census", "--lines", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "mults=(2,2,2)" in lines[0]
    assert "mults=(3)" in lines[1]


def test_census_cli_structured_and_max_rows(capsys):
    assert main(["census", "--lines", "5", "--max-rows", "2",
                 "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert all(row["checks_passed"] for row in data)


def test_census_stable_for_small_line_counts():
    for d in range(2, 7):
        reports = list(census_rows(d))
        mults = [expand(r.spec) for r in reports]
        assert mults == sorted(mults)
        assert all(r.all_passed for r in reports)


def _row_dict(report):
    # the census row of a report as the structured output had it when it
    # went through json.dumps whole
    return {
        "d": report.spec.d,
        "multiplicities": list(expand(report.spec)),
        "mu": report.derived.mu,
        "delta_M": report.delta_m.to_dict(),
        "table": report.pairs_full.to_rows(),
        "checks_passed": report.all_passed,
        "failed_checks": [c.name for c in report.checks if not c.passed],
        "possibly_unrealizable": bool(report.warnings),
    }


@pytest.mark.parametrize(
    "argv, d, max_rows",
    [(["--lines", str(d)], d, None) for d in range(2, 10)]
    + [(["--lines", "6", "--max-rows", "0"], 6, 0),
       (["--lines", "6", "--max-rows", "1"], 6, 1)],
)
def test_streamed_census_equals_json_dumps_of_the_rows(capsys, argv, d, max_rows):
    assert main(["census", *argv, "--format", "structured"]) == 0
    rows = [_row_dict(report) for report in census_rows(d, max_rows)]
    want = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_a_census_row_with_failed_checks_equals_json_dumps_of_its_row():
    # every real row passes its checks, so a failing one is made by hand
    from specpairs.report import Check

    rows = list(census_rows(7))
    flagged = next(r for r in rows if r.warnings)
    failing = flagged._replace(checks=[
        *flagged.checks, Check("forced", False, "identity", "made \"by\" hand"),
        Check("also_forced", False, "input"),
    ])
    for report in (rows[0], flagged, failing):
        want = json.dumps([_row_dict(report)], sort_keys=True, indent=2)
        assert f"[\n  {cli._census_row_json(report)}\n]" == want
    assert '"checks_passed": false' in want and '"possibly_unrealizable": true' in want
    assert json.loads(want)[0]["failed_checks"] == ["forced", "also_forced"]


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_census_writes_each_row_before_building_the_next(monkeypatch, fmt):
    out = io.StringIO()
    written = []  # length of stdout as each row's report is built
    true_build_report = cli.build_report

    def recording(spec):
        written.append(len(out.getvalue()))
        return true_build_report(spec)

    monkeypatch.setattr(cli, "build_report", recording)
    with contextlib.redirect_stdout(out):
        assert main(["census", "--lines", "5", "--format", fmt]) == 0
    assert len(written) == 7 and written[0] == 0
    first = out.getvalue()[:written[1]]
    if fmt == "structured":
        assert [row["multiplicities"] for row in json.loads(first + "\n]")] == [
            [2] * 10
        ]
    else:
        assert first.count("\n") == 1 and "mults=(2,2,2,2,2,2,2,2,2,2)" in first


def test_census_with_a_failed_check_exits_two_with_complete_json(monkeypatch, capsys):
    from specpairs.report import Check

    true_build_report = cli.build_report
    built = []

    def failing_second(spec):
        report = true_build_report(spec)
        built.append(spec)
        if len(built) == 2:
            report.checks.append(Check("forced", False, "identity"))
        return report

    monkeypatch.setattr(cli, "build_report", failing_second)
    assert main(["census", "--lines", "5", "--format", "structured"]) == 2
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7
    assert [row["failed_checks"] for row in rows] == [[], ["forced"], *[[]] * 5]
    assert [row["checks_passed"] for row in rows].count(False) == 1


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_census_row_refused_by_the_budget_ends_with_its_violation(
    monkeypatch, capsys, fmt
):
    # a budget that admits the first rows of 8 lines but not every row
    rows = list(weak_multisets(8))
    estimates = [model._work_estimate(arrangement_spec(8, runs(r))) for r in rows]
    budget = sorted(estimates)[len(estimates) // 2]
    admitted = estimates.index(next(e for e in estimates if e > budget))
    assert admitted > 0
    monkeypatch.setattr(model, "WORK_BUDGET", budget)
    assert main(["census", "--lines", "8", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("[error] budget_exceeded: ") and err.count("\n") == 1
    if fmt == "structured":
        assert len(json.loads(out + "\n]")) == admitted
    else:
        assert len(out.splitlines()) == admitted


def test_census_refuses_an_over_budget_first_row_in_little_memory(capsys):
    # the first row of 5000 lines is C(5000, 2) = 12,497,500 double points
    tracemalloc.start()
    try:
        status = main(["census", "--lines", "5000", "--max-rows", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert status == 1 and out == ""
    assert err.startswith("[error] budget_exceeded: ") and err.count("\n") == 1
    assert peak < 4 * 10**6


def test_negative_max_rows_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["census", "--lines", "4", "--max-rows", "-1"])
    assert info.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "--max-rows: expected a count of at least 0, got -1" in err


def test_arrangement_spec_builder():
    spec = arrangement_spec(3, ((2, 3),))
    assert spec.line_arrangement and spec.components == 3
    assert expand(spec) == (2, 2, 2)


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_four_lines_with_three_nodes_are_refused(spec_file, capsys, command):
    # four lines meet in six points, counted with C(m, 2) pairs each; the
    # document needs no flag to be read as four lines
    doc = {"ambient_dim": 2, "degree": 4, "components": 4,
           "singularities": [{"kind": "ordinary", "multiplicity": 2, "count": 3}]}
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("[error] pair_count: multiplicities (2, 2, 2) account for "
                   "3 line pairs, but C(4,2) = 6\n")


@pytest.mark.parametrize(
    "d, m, count, status", [(2, 2, 1, 0), (3, 3, 1, 0), (3, 2, 3, 0), (5, 3, 3, 1)]
)
def test_an_ordinary_point_of_any_kind_is_a_point_of_lines(
    spec_file, capsys, d, m, count, status
):
    # an ordinary m-fold point is the germ of m branches with Milnor number
    # (m - 1)^2, whether written as ordinary, brieskorn [m, m] or explicit
    # data, and d lines read each kind alike (five lines with three triple
    # points have too few line pairs, so each kind is refused alike)
    outputs = []
    for germ in (Ordinary(m), Brieskorn(m, m), brieskorn_pham_explicit((m, m))):
        spec = HypersurfaceSpec(n=1, d=d, components=d, singularities=((germ, count),))
        path = spec_file(serialize_spec(spec))
        assert main(["compute", path, "--format", "structured"]) == status
        out, err = capsys.readouterr()
        got = json.loads(out) if out else {}
        got.pop("spec", None)
        outputs.append((got, err))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert "line_arrangement_shape" not in outputs[0][1]


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_an_absent_line_arrangement_key_reads_as_derived(spec_file, capsys, fmt):
    flagged = json.loads((GOLDEN / "three_generic_lines.json").read_text("utf-8"))
    assert flagged["line_arrangement"] is True
    unflagged = {k: v for k, v in flagged.items() if k != "line_arrangement"}
    outputs = []
    for doc in (flagged, unflagged):
        assert main(["compute", spec_file(doc), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]  # the echo writes the derived true


def test_census_rows_read_from_documents_without_the_key():
    # every census row up to eight lines, written as a document with no
    # line_arrangement key, gives the report of arrangement_spec
    rows = 0
    for d in range(2, 9):
        for points in cli._weak_runs(d):
            doc = {"ambient_dim": 2, "degree": d, "components": d, "singularities": [
                {"kind": "ordinary", "multiplicity": m, "count": c} for m, c in points]}
            got, want = (report_to_dict(build_report(spec)) for spec in
                         (parse_spec(json.dumps(doc)), arrangement_spec(d, points)))
            assert got == want, points
            rows += 1
    assert rows > 50


def test_explicit_document_matches_builtin_encoding(spec_file, capsys):
    # the cusp as user-supplied explicit data must reproduce the built-in germ
    builtin_doc = {
        "ambient_dim": 2,
        "degree": 3,
        "components": 1,
        "singularities": [{"kind": "brieskorn", "exponents": [2, 3], "count": 1}],
    }
    explicit_doc = CUSPIDAL_CUBIC_EXPLICIT_DOC
    assert main(["compute", spec_file(builtin_doc, "b.json"),
                 "--format", "structured"]) == 0
    builtin = json.loads(capsys.readouterr().out)
    assert main(["compute", spec_file(explicit_doc, "e.json"),
                 "--format", "structured"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    for key in ("delta_M", "derived", "divisibility", "bounds"):
        assert builtin[key] == explicit[key]
    assert builtin["tables"]["full"] == explicit["tables"]["full"]


def test_exit_status_mapping():
    from specpairs.cli import _report_exit_status
    from specpairs.report import Check

    class Stub:
        def __init__(self, checks):
            self.checks = checks

        def failed(self, kind=None):
            return [
                c
                for c in self.checks
                if not c.passed and (kind is None or c.kind == kind)
            ]

    ok = Stub([Check("a", True, "identity")])
    bad_input = Stub([Check("a", False, "input")])
    bad_identity = Stub([Check("a", False, "identity"), Check("b", False, "input")])
    assert _report_exit_status(ok) == 0
    assert _report_exit_status(bad_input) == 1
    assert _report_exit_status(bad_identity) == 2


REPLACEMENTS = [None, True, 1.5, "x", [], {}]


def test_every_value_swapped_for_a_wrong_shape_ends_in_an_exit_status(tmp_path):
    # each value of each golden input, the document itself included, swapped
    # for each JSON shape: the CLI answers with a status and never raises
    path = tmp_path / "swapped.json"
    swapped = 0
    for golden in sorted(GOLDEN.glob("*.json")):
        document = json.loads(golden.read_text(encoding="utf-8"))
        for where in [(), *_value_paths(document)]:
            for new in REPLACEMENTS:
                path.write_text(json.dumps(_replaced(document, where, new)))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = main(["verify", str(path)])
                assert status in (0, 1, 2), (golden.name, where, new)
                swapped += 1
    assert swapped == 906


def test_every_integer_swapped_ends_in_a_report_or_a_violation(tmp_path):
    # each integer of each golden input swapped for zero, -1, its neighbours
    # and 10^9: the answer is a report or a violation, never a failed
    # identity (exit 2), and never an unbounded run
    path = tmp_path / "swapped.json"
    swapped = 0
    for golden in sorted(GOLDEN.glob("*.json")):
        document = json.loads(golden.read_text(encoding="utf-8"))
        for where in _value_paths(document):
            value = reduce(operator.getitem, where, document)
            if type(value) is not int:
                continue
            for new in (0, -1, value - 1, value + 1, 10**9):
                path.write_text(json.dumps(_replaced(document, where, new)))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = main(["verify", str(path)])
                assert status in (0, 1), (golden.name, where, new)
                swapped += 1
    assert swapped == 370


def test_odd_error_term_is_a_failed_identity_check(monkeypatch, capsys):
    # delta_M times Phi(2) keeps delta_U^2 | delta_M but makes e(t) odd
    from specpairs import boundary

    true_alexander = boundary.boundary_alexander
    monkeypatch.setattr(
        boundary,
        "boundary_alexander",
        lambda spec: true_alexander(spec) * CyclotomicFactorization(factors={2: 1}),
    )
    document = Path(__file__).parent / "golden" / "delta_u_concurrent_lines.json"
    assert main(["verify", str(document)]) == 2
    assert "FAIL  error_term_even_degree" in capsys.readouterr().out
