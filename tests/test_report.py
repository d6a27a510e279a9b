"""Report assembly: check coverage, determinism and failure surfacing."""

from __future__ import annotations

import json
import random

import pytest
from helpers import random_spec

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    HypersurfaceSpec,
    InvalidSpec,
    Ordinary,
    build_report,
    render_text,
    report_to_dict,
    report_to_json,
)

THREE_GENERIC_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(2), 3),), line_arrangement=True
)


def check_names(report):
    return [c.name for c in report.checks]


def test_worked_example_report_passes():
    report = build_report(THREE_GENERIC_LINES)
    assert report.all_passed
    assert check_names(report) == [
        "degree_identity",
        "xi_integral",
        "local_alexander_degree",
        "local_unipotent_mass",
        "conjugation_symmetry",
        "level_duality",
        "two_path_agreement",
        "total_mass",
        "arrangement_agreement",
        "bound_consistency",
    ]


def test_checks_appear_exactly_once():
    for spec in (
        THREE_GENERIC_LINES,
        HypersurfaceSpec(n=1, d=3, components=1,
                         singularities=((Brieskorn(2, 3), 1),),
                         rational_homology_manifold=True,
                         delta_u=CyclotomicFactorization(factors={1: 2, 6: 1})),
        HypersurfaceSpec(n=2, d=3, components=1),
    ):
        names = check_names(build_report(spec))
        assert len(names) == len(set(names))


def test_report_is_deterministic():
    rng = random.Random(5)
    specs = [random_spec(rng, rng.choice((1, 2))) for _ in range(10)]
    specs.append(THREE_GENERIC_LINES)
    for spec in specs:
        first = report_to_json(build_report(spec))
        second = report_to_json(build_report(spec))
        assert first == second
        json.loads(first)  # well-formed


def test_invalid_spec_raises_with_violations():
    bad = HypersurfaceSpec(
        n=1, d=3, components=1,
        singularities=((Brieskorn(2, 3), 1), (Brieskorn(2, 4), 1)),
    )
    with pytest.raises(InvalidSpec) as info:
        build_report(bad)
    assert any(v.code == "negative_mu" for v in info.value.violations)


def test_warning_for_unrealizable_weak_data():
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(3), 2),),
        line_arrangement=True,
    )
    report = build_report(spec)
    assert report.all_passed
    assert [w.code for w in report.warnings] == ["shared_line"]
    assert "possibly" in render_text(report)


def test_wrong_delta_u_fails_input_checks_only():
    spec = HypersurfaceSpec(
        n=1, d=3, components=3,
        singularities=((Ordinary(2), 3),),
        line_arrangement=True,
        delta_u=CyclotomicFactorization(factors={2: 1}),
    )
    report = build_report(spec)
    assert not report.all_passed
    assert not report.failed("identity")
    failed = {c.name for c in report.failed("input")}
    assert "delta_u_consistent" in failed
    assert "delta_u_divides_infinity" in failed


def test_rhm_report_includes_weight_tables():
    spec = HypersurfaceSpec(
        n=2, d=3, components=1, rational_homology_manifold=True
    )
    report = build_report(spec)
    assert report.all_passed
    assert "qhm_agreement" not in check_names(report)  # curve-only comparison
    data = report_to_dict(report)
    assert data["tables"]["weights_resolved"] is True
    assert set(data["tables"]["by_weight"]) == {"1", "2", "3"}
    assert data["tables"]["full"]


def test_random_reports_pass_all_checks():
    rng = random.Random(20260808)
    for _ in range(40):
        spec = random_spec(rng, rng.choice((1, 2, 3)))
        report = build_report(spec)
        assert report.all_passed, [c.line() for c in report.failed()]


def test_random_reports_with_consistent_delta_u():
    # any delta_U below both divisibility bounds with delta_U^2 below delta_M
    # must pass all input checks and give an even-degree error term
    import dataclasses

    from specpairs import (
        boundary_alexander,
        divisibility_bound_infinity,
        divisibility_bound_local,
    )

    rng = random.Random(77)
    for _ in range(30):
        spec = random_spec(rng, rng.choice((1, 2)))
        delta_m = boundary_alexander(spec)
        inf_bound = divisibility_bound_infinity(spec.n, spec.d)
        loc_bound = divisibility_bound_local(spec)
        factors = {}
        for k, m in delta_m.factors.items():
            cap = min(m // 2, inf_bound.multiplicity(k), loc_bound.multiplicity(k))
            if cap > 0:
                factors[k] = rng.randint(0, cap)
        delta_u = CyclotomicFactorization(
            factors={k: m for k, m in factors.items() if m}
        )
        report = build_report(dataclasses.replace(spec, delta_u=delta_u))
        assert report.all_passed, [c.line() for c in report.failed()]
        assert report.error_term is not None
        assert report.error_term.degree % 2 == 0


def test_build_report_enumerates_each_germ_spectrum_at_most_twice(monkeypatch):
    # each germ entry's spectrum feeds its local pairs and local Alexander
    # polynomial; an RHM curve also reads its Hodge filtration from it
    from specpairs import localsing

    calls = []
    spectrum = localsing.spectrum
    monkeypatch.setattr(
        localsing, "spectrum", lambda s: calls.append(s) or spectrum(s)
    )
    braid = HypersurfaceSpec(
        n=1, d=6, components=6,
        singularities=((Ordinary(3), 4), (Ordinary(2), 3)),
        line_arrangement=True,
    )
    rhm_quintic = HypersurfaceSpec(
        n=1, d=5, components=1,
        singularities=((Brieskorn(2, 5), 1), (Brieskorn(3, 4), 1)),
        rational_homology_manifold=True,
    )
    for spec, per_entry in ((braid, 2), (rhm_quintic, 3)):
        calls.clear()
        build_report(spec)
        assert 0 < len(calls) <= per_entry * len(spec.singularities)


def test_render_text_sections():
    text = render_text(build_report(THREE_GENERIC_LINES))
    assert "delta_M = Phi(1)^6 * Phi(3)" in text
    assert "checks:" in text
    assert "PASS  degree_identity" in text


def test_check_helpers_detect_violations():
    # the cross-check helpers must actually fail on corrupted tables
    from fractions import Fraction

    from specpairs import BoundTable, SpectralPairTable
    from specpairs.report import (
        _check_bound_consistency,
        _check_level_duality,
        _check_tables_conjugation,
    )

    asymmetric = SpectralPairTable({(0, 1, Fraction(1, 3)): 1})
    assert not _check_tables_conjugation({"bad": asymmetric}).passed
    symmetric = SpectralPairTable(
        {(0, 1, Fraction(1, 3)): 1, (1, 0, Fraction(2, 3)): 1}
    )
    assert _check_tables_conjugation({"good": symmetric}).passed

    lopsided = SpectralPairTable({(0, 1, Fraction(1, 3)): 2})
    assert not _check_level_duality(1, lopsided, None, None).passed
    assert _check_level_duality(1, symmetric, None, None).passed
    skewed_weights = {
        0: SpectralPairTable({(0, 0, 0): 2}),
        1: SpectralPairTable(),
        2: SpectralPairTable({(1, 1, 0): 1}),
    }
    assert not _check_level_duality(
        1, SpectralPairTable(), None, skewed_weights
    ).passed

    loose = BoundTable({(0, 1, Fraction(2, 3)): 5, (1, 1, Fraction(0)): 2})
    tight = BoundTable({(0, 1, Fraction(2, 3)): 1, (1, 1, Fraction(0)): 2})
    assert not _check_bound_consistency(
        THREE_GENERIC_LINES, loose, tight, None
    ).passed
    assert _check_bound_consistency(
        THREE_GENERIC_LINES, tight, loose, None
    ).passed
    # a complement table missing the eigenvalue-1 entry cannot support the
    # exact curve value r - 1
    assert not _check_bound_consistency(
        THREE_GENERIC_LINES, BoundTable({}), loose, None
    ).passed
