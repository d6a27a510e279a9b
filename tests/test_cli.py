"""Command-line interface: subcommands, formats and exit codes."""

from __future__ import annotations

import json

import pytest
from helpers import brieskorn_pham_explicit

from specpairs import HypersurfaceSpec, model, serialize_spec
from specpairs.cli import arrangement_spec, census_rows, main, weak_multisets

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
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    return write


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
    assert main(["verify", spec_file(doc)]) == 1
    assert "too_many_components" in capsys.readouterr().err


def test_verify_exit_one_on_bad_delta_u(spec_file, capsys):
    doc = dict(
        THREE_GENERIC_LINES_DOC,
        delta_U={"unit": "1/1", "t_power": 0, "factors": [[2, 1]]},
    )
    assert main(["verify", spec_file(doc)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _nodal_cubic_surface_doc_without_grf():
    node = brieskorn_pham_explicit((2, 2, 2))
    doc = serialize_spec(
        HypersurfaceSpec(n=2, d=3, components=1, singularities=((node, 1),),
                         rational_homology_manifold=True)
    )
    del doc["singularities"][0]["grF_dims"]
    return doc


RHM_QUARTIC_WITH_OVERSIZED_GRF = {
    "ambient_dim": 2,
    "degree": 4,
    "components": 1,
    "rational_homology_manifold": True,
    "singularities": [
        {
            "kind": "explicit",
            "milnor_number": 2,
            "branches": 1,
            "alexander": {"unit": "1/1", "t_power": 0, "factors": [[6, 1]]},
            "spectral_pairs": [[0, 1, "5/6", 1], [1, 0, "1/6", 1]],
            # the smooth quartic has h^{0,1} = 3
            "grF_dims": [[0, 5], [1, 1]],
        }
    ],
}


@pytest.mark.parametrize(
    "doc, code",
    [
        ({"ambient_dim": 2, "degree": 1, "components": 1}, "degree"),
        (_nodal_cubic_surface_doc_without_grf(), "rhm_inconsistent"),
        (RHM_QUARTIC_WITH_OVERSIZED_GRF, "rhm_inconsistent"),
    ],
    ids=["degree_one", "rhm_missing_grf", "rhm_oversized_grf"],
)
@pytest.mark.parametrize("command", ["compute", "verify"])
def test_documents_that_used_to_crash_end_as_violations(
    spec_file, capsys, doc, code, command
):
    assert main([command, spec_file(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"] {code}: " in err


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


def test_oracle(capsys):
    assert main(["oracle", "milnor-dim", "1", "3", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2 2"


def test_weak_multisets_for_three_lines():
    assert weak_multisets(3) == [(2, 2, 2), (3,)]


def test_weak_multisets_for_four_lines():
    assert weak_multisets(4) == [(2, 2, 2, 2, 2, 2), (3, 2, 2, 2), (3, 3), (4,)]


def test_census_rows_checks_pass_and_flag_unrealizable():
    rows = census_rows(4)
    assert [r.multiplicities for r in rows] == weak_multisets(4)
    assert all(r.checks_passed for r in rows)
    flagged = [r.multiplicities for r in rows if r.possibly_unrealizable]
    assert flagged == [(3, 3)]
    for row in rows:
        assert row.table.total_dim() == 2 * (4 - 1) ** 2
        assert row.delta_m.degree == 2 * (4 - 1) ** 2


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
        rows = census_rows(d)
        assert [r.multiplicities for r in rows] == sorted(
            r.multiplicities for r in rows
        )
        assert all(r.checks_passed for r in rows)


def test_arrangement_spec_builder():
    spec = arrangement_spec(3, (2, 2, 2))
    assert spec.line_arrangement and spec.components == 3
    assert spec.derived.ordinary_multiplicities == (2, 2, 2)


def test_explicit_document_matches_builtin_encoding(spec_file, capsys):
    # the cusp as user-supplied explicit data must reproduce the built-in germ
    builtin_doc = {
        "ambient_dim": 2,
        "degree": 3,
        "components": 1,
        "singularities": [{"kind": "brieskorn", "exponents": [2, 3], "count": 1}],
    }
    explicit_doc = {
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
