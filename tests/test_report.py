"""Report assembly: check coverage, determinism and failure surfacing."""

from __future__ import annotations

import enum
import itertools
import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    bound_table,
    brieskorn_pham_explicit,
    germ_invariants_recomputed,
    oracle_render_text,
    pair_table,
    random_spec,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    InvalidSpec,
    Ordinary,
    boundary,
    bounds,
    build_report,
    localsing,
    model,
    parse_spec,
    render_text,
    report_to_dict,
    report_to_json,
)
from specpairs.bounds import BoundTable
from specpairs.cli import census_rows
from specpairs.milnor import steenbrink_infinity
from specpairs.pairs import SpectralPairTable, _angle_texts, grouped, table_sum
from specpairs.report import _json

GOLDEN = Path(__file__).parent / "golden"

THREE_GENERIC_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(2), 3),)
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


def test_validate_runs_once_per_report(monkeypatch):
    calls = []
    true_validate = model.validate

    def counting(spec):
        calls.append(spec)
        return true_validate(spec)

    monkeypatch.setattr(model, "validate", counting)
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(3), 2),),
    )
    report = build_report(spec)
    assert calls == [spec]
    # the warnings come from the same cached result
    assert [v.code for v in report.warnings] == ["shared_line"]
    assert report.warnings == list(spec.violations)


def test_each_bound_and_delta_m_is_made_once_per_report(monkeypatch):
    # every module binding one of the two routes gets the counting wrapper,
    # so calls from inside the package count as well
    calls = {}
    # (derived_quantities makes the local bound, once per spec)
    for owner, name in ((model, "derived_quantities"),
                        (boundary, "boundary_alexander")):
        route = getattr(owner, name)
        calls[name] = 0

        def counting(*args, name=name, route=route):
            calls[name] += 1
            return route(*args)

        for module in [m for key, m in sys.modules.items()
                       if key.startswith("specpairs.")]:
            if vars(module).get(name) is route:
                monkeypatch.setattr(module, name, counting)
    report = build_report(HypersurfaceSpec(
        n=1, d=3, components=3,
        singularities=((Ordinary(3), 1),),
        delta_u=CyclotomicFactorization(factors={1: 2, 3: 1}),
    ))
    assert report.all_passed and report.error_term is not None
    assert calls == {"derived_quantities": 1, "boundary_alexander": 1}


def test_every_factorization_of_a_report_is_a_canonical_value():
    specs = [parse_spec(path.read_text(encoding="utf-8"))
             for path in sorted(GOLDEN.glob("*.json"))]
    rng = random.Random(10)
    specs += [random_spec(rng, n) for n in (1, 2, 3) for _ in range(10)]
    with_error_term = 0
    for spec in specs:
        report = build_report(spec)
        polys = [report.delta_m, bounds.divisibility_bound_infinity(spec.n, spec.d),
                 report.derived.local_bound]
        polys += [s.alexander for s, _ in spec.singularities]
        if report.error_term is not None:
            polys.append(report.error_term)
            with_error_term += 1
        for f in polys:
            assert all(type(k) is int and type(m) is int for k, m in f.factors.items())
            rebuilt = CyclotomicFactorization(f.factors)
            assert rebuilt == f and hash(rebuilt) == hash(f)
    assert with_error_term


def test_warning_for_unrealizable_weak_data():
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(3), 2),),
    )
    report = build_report(spec)
    assert report.all_passed
    assert [w.code for w in report.warnings] == ["shared_line"]
    assert "possibly" in render_text(report)


def test_wrong_delta_u_fails_input_checks_only():
    spec = HypersurfaceSpec(
        n=1, d=3, components=3,
        singularities=((Ordinary(2), 3),),
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
    from specpairs import boundary_alexander, divisibility_bound_infinity

    rng = random.Random(77)
    for _ in range(30):
        spec = random_spec(rng, rng.choice((1, 2)))
        delta_m = boundary_alexander(spec)
        inf_bound = divisibility_bound_infinity(spec.n, spec.d)
        loc_bound = spec.derived.local_bound
        factors = {}
        for k, m in delta_m.factors.items():
            cap = min(m // 2, inf_bound.multiplicity(k), loc_bound.multiplicity(k))
            if cap > 0:
                factors[k] = rng.randint(0, cap)
        delta_u = CyclotomicFactorization(
            factors={k: m for k, m in factors.items() if m}
        )
        report = build_report(spec._replace(delta_u=delta_u))
        assert report.all_passed, [c.line() for c in report.failed()]
        assert report.error_term is not None
        assert report.error_term.degree % 2 == 0


def test_build_report_enumerates_each_germ_spectrum_once(monkeypatch):
    # a built-in germ keeps its spectrum, and its local pairs and local
    # Alexander polynomial are both read off the kept one
    from specpairs import localsing

    calls = []
    enumerate_spectrum = localsing.brieskorn_pham_spectrum
    monkeypatch.setattr(
        localsing,
        "brieskorn_pham_spectrum",
        lambda e: calls.append(e) or enumerate_spectrum(e),
    )
    braid = HypersurfaceSpec(
        n=1, d=6, components=6,
        singularities=((Ordinary(3), 4), (Ordinary(2), 3)),
    )
    rhm_quintic = HypersurfaceSpec(
        n=1, d=5, components=1,
        singularities=((Brieskorn(2, 5), 1), (Brieskorn(3, 4), 1)),
        rational_homology_manifold=True,
    )
    for spec in (braid, rhm_quintic):
        calls.clear()
        build_report(spec)
        assert calls == [s.exponents for s, _ in spec.singularities]


def test_census_computes_each_germ_invariant_once(monkeypatch):
    # every row checks each of its germs' Milnor number and branch count;
    # the rows share one germ per multiplicity, which computes each of the
    # two on its first read only.  A computation is seen as the call of prod
    # or gcd made by the function behind the attribute, with its `self`.
    import builtins

    computed = []  # (name, instance) per computation

    def count(module, called, owner, name, read):
        behind = vars(owner)[name]
        code = getattr(behind, "func", getattr(behind, "fget", behind)).__code__
        original = getattr(module, called, None) or getattr(builtins, called)

        def counted(*args):
            caller = sys._getframe(1)
            if caller.f_code is code:
                computed.append((name, caller.f_locals["self"]))
            return original(*args)

        monkeypatch.setattr(module, called, counted, raising=False)
        return name, read

    quasi = localsing.Brieskorn
    reads = [
        count(localsing, "prod", quasi, "milnor", lambda s: s),
        count(localsing, "gcd", quasi, "branches", lambda s: s),
    ]
    germs = {}
    for report in census_rows(10):
        assert report.all_passed
        germs.update((s.multiplicity, s) for s, _ in report.spec.singularities)
    assert sorted(germs) == list(range(2, 11))
    for name, read in reads:
        instances = [obj for label, obj in computed if label == name]
        times = {m: sum(obj is read(s) for obj in instances) for m, s in germs.items()}
        assert times == dict.fromkeys(germs, 1), name


def test_kept_germ_invariants_equal_a_recomputation():
    # each golden document's germs and the shared germs of every census row
    # with d <= 8 answer the same four numbers on the first read and on the
    # second, and the test helper's loops give them too
    specs = [parse_spec(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
    specs += [report.spec for d in range(2, 9) for report in census_rows(d)]
    germs = [s for spec in specs for s, _ in spec.singularities]
    assert {type(s).__name__ for s in germs} == {"Brieskorn", "Explicit", "Ordinary"}
    for s in germs:
        want = germ_invariants_recomputed(s)
        for _ in range(2):
            found = s.milnor, s.branches, s.alexander.degree, s.pairs.unipotent_dim()
            assert found == want, s


def test_build_report_on_a_3000_line_pencil_stays_fast():
    # the spectrum of an ordinary 3000-fold point has about 9 * 10^6 values,
    # so the pipeline must not enumerate them one by one
    from specpairs.cli import arrangement_spec

    start = time.perf_counter()
    report = build_report(arrangement_spec(3000, ((3000, 1),)))
    assert time.perf_counter() - start < 10.0
    assert report.all_passed
    assert report.derived.mu == 0


@pytest.mark.parametrize(
    "d, merged, split",
    [
        (6, [(3, 4), (2, 3)], [(2, 1), (3, 1), (2, 2), (3, 3)]),  # braid_six_lines
        (4, [(3, 2)], [(3, 1), (3, 1)]),  # the census row (3, 3), flagged
    ],
    ids=["braid_six_lines", "flagged_row"],
)
def test_arrangement_entry_layout_does_not_matter(d, merged, split):
    # the points of one multiplicity over several entries in mixed order
    # give the report of the document with one entry per multiplicity
    def report(points):
        doc = {
            "ambient_dim": 2, "degree": d, "components": d, "line_arrangement": True,
            "singularities": [
                {"kind": "ordinary", "multiplicity": m, "count": c} for m, c in points
            ],
        }
        return report_to_dict(build_report(parse_spec(json.dumps(doc))))

    want, got = report(merged), report(split)
    assert got.pop("spec") != want.pop("spec")
    assert got == want
    assert all(check["passed"] for check in got["checks"])
    assert len(got["warnings"]) == (d == 4)


def test_builtin_germs_and_their_explicit_twins_give_one_report():
    # every consumer reads a germ's milnor, branches, pairs and alexander
    # and none branches on its kind, so a built-in germ and Explicit data
    # with the same values give the same violations and the same report,
    # whether the data gives every field or only the pairs.  At r = d
    # this holds for d lines too: a point is ordinary by its values
    germs = [Ordinary(m) for m in range(2, 7)]
    germs += [Brieskorn(a, b) for a in range(2, 9) for b in range(a, 9)]
    valid = 0
    for germ, pairs_only in itertools.product(germs, (False, True)):
        twin = brieskorn_pham_explicit(germ.exponents)
        if pairs_only:
            twin = Explicit(twin.pairs)
        for d, count in itertools.product(range(2, 12), (1, 2)):
            for r in range(1, d + 1):
                spec = HypersurfaceSpec(n=1, d=d, components=r,
                                        singularities=((germ, count),))
                other = spec._replace(singularities=((twin, count),))
                codes = [v.code for v in spec.violations]
                assert [v.code for v in other.violations] == codes, (spec, codes)
                if any(v.severity == "error" for v in spec.violations):
                    continue
                valid += 1
                found, expected = (
                    report_to_dict(build_report(s)) for s in (other, spec)
                )
                assert found.pop("spec") != expected.pop("spec")
                assert found == expected, spec
    assert valid > 2000


def test_render_text_sections():
    text = render_text(build_report(THREE_GENERIC_LINES))
    assert "delta_M = Phi(1)^6 * Phi(3)" in text
    assert "checks:" in text
    assert "PASS  degree_identity" in text


def test_render_text_builds_no_eigenvalue_one_table(monkeypatch):
    # tables.unipotent is a JSON-only section: the text renderer neither
    # prints it nor builds it
    stems = ("cuspidal_cubic", "braid_six_lines", "rhm_quintic", "nodal_cubic_surface")
    reports = [build_report(parse_spec((GOLDEN / f"{stem}.json").read_text("utf-8")))
               for stem in stems]
    assert all(report.pairs_full is not None for report in reports)
    calls = []
    true_unipotent = SpectralPairTable.unipotent
    monkeypatch.setattr(SpectralPairTable, "unipotent",
                        lambda table: calls.append(table) or true_unipotent(table))
    for report in reports:
        render_text(report)
    assert calls == []
    assert all("unipotent" in report_to_dict(report)["tables"] for report in reports)
    assert len(calls) == len(reports)


def _lines(**changes):
    return HypersurfaceSpec(n=1, d=3, components=3,
                            singularities=((Ordinary(2), 3),), **changes)


def _rhm_cusp():
    return HypersurfaceSpec(n=1, d=3, components=1, rational_homology_manifold=True,
                            singularities=((Brieskorn(2, 3), 1),))


def _concurrent_lines():
    return HypersurfaceSpec(n=1, d=3, components=3,
                            singularities=((Ordinary(3), 1),),
                            delta_u=CyclotomicFactorization(factors={1: 2, 3: 1}))


def _phi(factors):
    return CyclotomicFactorization(factors=factors)


def _route(module, name, change):
    """(module, name, the route module.name with `change` applied to what it
    returns), for monkeypatch.setattr."""
    true_route = getattr(module, name)
    return module, name, lambda *args: change(true_route(*args))


def _germ_attribute(name, change):
    """(the built-in germ class, name, a property reading the germ's own
    `name` with `change` applied), for monkeypatch.setattr."""
    owner = localsing.Brieskorn
    true_get = vars(owner)[name].__get__
    return owner, name, property(lambda germ: change(true_get(germ)))


NODE = "Ordinary(multiplicity=2)"
ONE_THIRD = pair_table({(0, 1, Fraction(1, 3)): 1})
ZERO = pair_table({(0, 0, Fraction(0)): 1})
ZERO_CORNER = pair_table({(1, 1, Fraction(0)): 1})
SKEWED_WEIGHTS = {
    0: pair_table({(0, 0, 0): 2}),
    1: pair_table(),
    2: pair_table({(1, 1, 0): 1}),
}
LOOSE = BoundTable(3, grouped({(0, 1, 2): 5, (1, 1, 0): 2}))

# "check-case": (kind, spec, (module, name, patched route), detail), where
# the patched route is one that build_report reads through its module, or a
# germ attribute, corrupted so that the named check sees a difference
FORCED_FAILURES = {
    "degree_identity": (
        "identity", _lines,
        _route(boundary, "boundary_alexander", lambda f: f * _phi({2: 1})),
        "deg delta_M: found 9, expected 8"),
    "xi_integral": (
        "identity", _lines,
        _route(model, "xi_exponent", lambda xi: xi + 1),
        "d * xi: found 6, expected 3"),
    "local_alexander_degree": (
        "identity", _lines,
        _germ_attribute("alexander", lambda f: f * _phi({1: 1})),
        f"{NODE}: found 2, expected 1"),
    "local_unipotent_mass": (
        "identity", _lines,
        _germ_attribute("pairs", lambda t: table_sum([(t, 1), (ZERO_CORNER, 2)])),
        f"{NODE}: found 3, expected 1"),
    "conjugation_symmetry-asymmetric": (
        "identity", _lines,
        _route(boundary, "boundary_pairs_arrangement", lambda t: t + ONE_THIRD),
        "arrangement: only found h(0,1,1/3)=1 vs only expected h(1,0,2/3)=1"),
    "level_duality-lopsided": (
        "identity", _lines,
        _route(boundary, "boundary_pairs_nonunipotent",
               lambda _: table_sum([(ONE_THIRD, 2)])),
        "nonunipotent: only found h(1,0,2/3)=2 vs only expected h(0,1,1/3)=2"),
    "level_duality-skewed_weights": (
        "identity", _rhm_cusp,
        _route(boundary, "boundary_pairs_qhm", lambda _: SKEWED_WEIGHTS),
        "weight 0: only found h(1,1,0/1)=2 vs only expected h(1,1,0/1)=1; "
        "weight 2: only found h(0,0,0/1)=1 vs only expected h(0,0,0/1)=2"),
    "two_path_agreement": (
        "identity", _lines,
        _route(boundary, "boundary_pairs_curve", lambda t: t + ONE_THIRD),
        "only found h(0,1,1/3)=1 vs only expected none"),
    "total_mass": (
        "identity", _lines,
        _route(boundary, "boundary_pairs_curve", lambda t: t + ZERO),
        "table mass: found 9, expected 8"),
    "arrangement_agreement": (
        "identity", _lines,
        _route(boundary, "boundary_pairs_arrangement", lambda t: t + ZERO),
        "only found h(0,0,0/1)=4 vs only expected h(0,0,0/1)=3"),
    "qhm_agreement": (
        "identity", _rhm_cusp,
        _route(boundary, "flatten_weights", lambda t: t + ZERO),
        "only found h(0,0,0/1)=3 vs only expected h(0,0,0/1)=2"),
    "bound_consistency-loose_complement": (
        "identity", _lines,
        _route(bounds, "spectral_bound_complement", lambda _: LOOSE),
        "complement (0, 1, 2/3) > curve bound 1"),
    "bound_consistency-no_exact_entry": (
        "identity", _lines,
        _route(bounds, "spectral_bound_complement", lambda _: BoundTable(1, {})),
        "exact (1,1,0) value exceeds the complement bound"),
    "delta_u_divides_infinity": (
        "input", _concurrent_lines,
        _route(bounds, "divisibility_bound_infinity",
               lambda _: _phi({1: 1})),
        "multiplicity too high at Phi(1), Phi(3)"),
    "delta_u_divides_local": (
        "input", _concurrent_lines,
        _route(model, "derived_quantities",
               lambda derived: derived._replace(local_bound=_phi({3: 1}))),
        "multiplicity too high at Phi(1)"),
    "error_term_even_degree": (
        "identity", _concurrent_lines,
        _route(boundary, "error_term", lambda _: _phi({2: 1})),
        "deg e(t) mod 2: found 1, expected 0"),
    "delta_u_consistent": (
        "input", _concurrent_lines,
        _route(boundary, "boundary_alexander", lambda _: _phi({1: 1})),
        "delta_U^2 does not divide delta_M: multiplicity too high at Phi(1), Phi(3)"),
}


@pytest.mark.parametrize("case", FORCED_FAILURES)
def test_every_check_forced_to_fail_names_what_differs(monkeypatch, case):
    kind, spec, (module, name, route), detail = FORCED_FAILURES[case]
    monkeypatch.setattr(module, name, route)
    checks = {c.name: c for c in build_report(spec()).checks}
    check = checks[case.split("-")[0]]
    assert check.line().startswith("FAIL  ")
    assert (check.kind, check.detail) == (kind, detail)


def test_forced_failures_cover_every_check_with_distinct_details():
    names = {case.split("-")[0] for case in FORCED_FAILURES}
    assert names == README_CHECKS and len(names) == 15
    details = [detail for *_, detail in FORCED_FAILURES.values()]
    assert len(set(details)) == len(details)


def _readme_checks():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(\w+)` \|", readme, flags=re.M))


README_CHECKS = _readme_checks()


def test_readme_check_table_names_every_emitted_check():
    specs = [parse_spec(path.read_text(encoding="utf-8"))
             for path in sorted(GOLDEN.glob("*.json"))]
    specs.append(_lines(delta_u=CyclotomicFactorization(factors={1: 4})))
    emitted = {c.name for spec in specs for c in build_report(spec).checks}
    assert emitted == README_CHECKS


# The output writer against the stdlib encoder it replaces.

characters = st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600') | st.characters()
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1])
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.text(characters, max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(characters, max_size=6), children, max_size=4),
    max_leaves=16,
)


class Level(enum.IntEnum):
    HIGH = 7


class Text(str):
    pass


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([1, True])  # a bool is an int to isinstance, but json writes true
@example([True, False])
@example([0, -1, 10**80])
@example([])
@example({"a": True, "b": None, "c": 0})  # scalars written inline in a dict
# subclasses miss the exact-type writers: json writes an int and a string
@example([Level.HIGH, Text("a\u00e9"), {"k": Level.HIGH, "s": Text("")}])
@example(Level.HIGH)
def test_writer_equals_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


pair_keys = st.tuples(
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=-2, max_value=3),
    st.fractions(min_value=0, max_value=Fraction(29, 30), max_denominator=30),
)
counts = st.integers(min_value=1, max_value=10**30)
pair_tables = st.dictionaries(pair_keys, counts, max_size=8).map(pair_table)
bound_tables = st.dictionaries(
    pair_keys, st.tuples(st.integers(min_value=0, max_value=10**30), st.booleans()),
    max_size=8,
).map(lambda entries: bound_table(
    {key: value for key, (value, _) in entries.items()},
    exact=[key for key, (_, exact) in entries.items() if exact],
))


@settings(max_examples=100, deadline=None)
@given(pair_tables | bound_tables, st.integers(min_value=0, max_value=6))
def test_table_rows_equal_json_dumps_of_to_rows_at_any_depth(table, depth):
    pad = "  " * depth
    reindented = json.dumps(table.to_rows(), indent=2).replace("\n", "\n" + pad)
    assert _json(table, pad) == reindented
    nested = {"tables": [{"rows": table, "empty": []}], "count": 1}
    assert _json(nested) == json.dumps(
        {"tables": [{"rows": table.to_rows(), "empty": []}], "count": 1},
        sort_keys=True, indent=2,
    )


factorizations = st.builds(
    CyclotomicFactorization,
    st.dictionaries(st.integers(min_value=1, max_value=60),
                    st.integers(min_value=0, max_value=10**30), max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(factorizations, st.integers(min_value=0, max_value=6))
@example(CyclotomicFactorization({}), 0)
@example(CyclotomicFactorization({1: 10**20 + 1, 12: 3 * 10**25}), 1)
def test_factorization_equals_json_dumps_of_to_dict_at_any_depth(f, depth):
    pad = "  " * depth
    want = json.dumps(f.to_dict(), sort_keys=True, indent=2)
    assert _json(f, pad) == want.replace("\n", "\n" + pad)


def test_angle_texts_are_made_on_demand_for_the_last_few_denominators():
    _angle_texts.cache_clear()
    den = 10**6
    table = SpectralPairTable(
        den, grouped({(0, 1, 1): 2, (1, 0, den // 2): 1, (0, 0, 0): 5}))
    assert list(table._cells()) == [
        (0, 0, "0/1", 5), (0, 1, "1/1000000", 2), (1, 0, "1/2", 1)]
    assert len(_angle_texts(den)) == 3
    limit = _angle_texts.cache_info().maxsize
    for den in range(2, 2 * limit + 3):
        entries = {(0, 1, k): k + 1 for k in range(den)}
        table = SpectralPairTable(den, grouped(entries))
        want = [[0, 1, f"{Fraction(k, den).numerator}/{Fraction(k, den).denominator}",
                 k + 1] for k in range(den)]
        assert table.to_rows() == want
        assert _json(table) == json.dumps(want, indent=2)
        assert _angle_texts.cache_info().currsize <= limit


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_report_json_reads_back_as_report_to_dict(path):
    report = build_report(parse_spec(path.read_text(encoding="utf-8")))
    assert json.loads(report_to_json(report)) == report_to_dict(report)


# The text renderer against the reference renderer in helpers.


def _with_tables(spec, **tables):
    return build_report(spec)._replace(**tables)


NARROW = pair_table({(0, 1, Fraction(1, 3)): 1, (1, 0, Fraction(2, 3)): 22})
WIDE = pair_table({(0, 1, Fraction(1, 3)): 10**7, (-1, 2, Fraction(0)): 3})
RENDER_CASES = {
    **{path.stem: lambda path=path: build_report(parse_spec(path.read_text("utf-8")))
       for path in sorted(GOLDEN.glob("*.json"))},
    "two_brieskorn_23_22_d62": lambda: build_report(HypersurfaceSpec(
        n=1, d=62, components=1,
        singularities=((Brieskorn(23, 22), 2), (Ordinary(2), 2)))),
    "forty_cusps_d200": lambda: build_report(HypersurfaceSpec(
        n=1, d=200, components=1, singularities=((Brieskorn(2, 3), 40),))),
    "pencil_arrangement": lambda: build_report(HypersurfaceSpec(
        n=1, d=7, components=7,
        singularities=((Ordinary(4), 1), (Ordinary(2), 15)))),
    "empty_table": lambda: build_report(HypersurfaceSpec(n=1, d=2, components=1)),
    "counts_narrower_than_header": lambda: _with_tables(
        THREE_GENERIC_LINES, pairs_nonunipotent=NARROW,
        bound_complement=BoundTable(1, grouped({(1, 1, 0): 7}), frozenset([(1, 1, 0)]))),
    "counts_wider_than_header": lambda: _with_tables(
        THREE_GENERIC_LINES, pairs_nonunipotent=WIDE,
        bound_complement=BoundTable(3, grouped({(0, 1, 1): 123456}))),
}


@pytest.mark.parametrize("case", RENDER_CASES)
def test_render_text_equals_the_reference_renderer(case):
    report = RENDER_CASES[case]()
    assert render_text(report) == oracle_render_text(report)


def test_reference_cases_cover_every_column_shape():
    texts = {case: render_text(build()) for case, build in RENDER_CASES.items()}
    assert "  (empty)" in texts["empty_table"]
    assert len(texts["two_brieskorn_23_22_d62"].splitlines()) == 1316
    assert "  p  q  alpha  count\n" in texts["counts_narrower_than_header"]
    assert "  p   q  alpha  count   \n" in texts["counts_wider_than_header"]
    # the unheaded fifth column of the bound tables is padded too
    arrangement = texts["pencil_arrangement"].split("arrangement form:\n")[1]
    assert arrangement.startswith("  p  q  alpha  bound       \n")


@settings(max_examples=60, deadline=None)
@given(pair_tables, bound_tables)
def test_render_text_equals_the_reference_renderer_on_any_tables(pairs, bound):
    report = _with_tables(THREE_GENERIC_LINES, pairs_nonunipotent=pairs,
                          bound_complement=bound, bound_arrangement=bound)
    assert render_text(report) == oracle_render_text(report)


# one angle per Hodge type, with p and q running to four characters either
# side of zero, and bounds that may be 0 where they are exact
wide_types = st.tuples(st.integers(min_value=-999, max_value=9999),
                       st.integers(min_value=-999, max_value=9999))
angles = st.fractions(min_value=0, max_value=Fraction(29, 30), max_denominator=30)
one_row_groups = st.dictionaries(wide_types, st.tuples(angles, counts), max_size=6).map(
    lambda rows: {(p, q, alpha): c for (p, q), (alpha, c) in rows.items()})
wide_pair_tables = one_row_groups.map(pair_table) | st.dictionaries(
    st.tuples(st.integers(min_value=-120, max_value=120),
              st.integers(min_value=-120, max_value=120), angles),
    st.integers(min_value=1, max_value=10**12), max_size=12,
).map(pair_table)
wide_bound_tables = one_row_groups.map(lambda rows: bound_table(
    {key: c % 3 * c for key, c in rows.items()},
    exact=[key for key, c in rows.items() if c % 2],
))


@settings(max_examples=100, deadline=None)
@given(wide_pair_tables, wide_bound_tables)
# the widest p is the least in one table and the greatest in the other
@example(pair_table({(-100, 0, 0): 1, (99, 0, 0): 1}),
         bound_table({(-1, 5, 0): 0, (1000, 2, Fraction(1, 3)): 7}, exact=[(-1, 5, 0)]))
@example(pair_table({(0, -10, 0): 10**9, (0, 5, Fraction(1, 2)): 3}),
         bound_table({(3, 3, 0): 123}))
def test_render_text_column_widths_equal_the_reference_on_wide_tables(pairs, bound):
    report = _with_tables(THREE_GENERIC_LINES, pairs_nonunipotent=pairs,
                          bound_complement=bound, bound_arrangement=bound)
    assert render_text(report) == oracle_render_text(report)


@settings(max_examples=100, deadline=None)
@given(pair_tables | bound_tables)
@example(pair_table({(0, 0, Fraction(0)): 1, (0, 0, Fraction(1, 2)): 2}))
def test_cells_are_the_sorted_items_with_lowest_terms_angles(table):
    cells = list(table._cells())
    entries = sorted(((p, q, k), value) for (p, q), group in table._groups.items()
                     for k, value in group.items())
    angles = [Fraction(k, table._den) for (_, _, k), _ in entries]
    assert [(p, q, value) for p, q, _, value, *_ in cells] == [
        (p, q, value) for (p, q, _), value in entries
    ]
    assert [alpha for _, _, alpha, *_ in cells] == [
        f"{angle.numerator}/{angle.denominator}" for angle in angles
    ]
    if isinstance(table, BoundTable):
        assert [kind for *_, kind in cells] == [
            "exact" if key in table._exact else "upper" for key, _ in entries
        ]


def _tables_and_factorizations(report) -> list:
    """Every pair table and factorization a report reaches: its fields (a
    dict field by its values), the derived sums and bounds, the bound at
    infinity, delta_U and each germ's pairs and Alexander polynomial."""
    spec, derived = report.spec, report.derived
    values = [derived.local_pair_sum, derived.infinity, derived.local_bound,
              bounds.divisibility_bound_infinity(spec.n, spec.d), spec.delta_u]
    for germ, _ in spec.singularities:
        values += [germ.pairs, germ.alexander]
    for value in report:
        values += value.values() if isinstance(value, dict) else [value]
    kinds = (SpectralPairTable, CyclotomicFactorization)
    return [value for value in values if isinstance(value, kinds)]


def test_every_table_and_factorization_goes_through_its_constructor(monkeypatch):
    made = []

    def recording(init):
        def wrapper(value, *args, **kwargs):
            made.append(value)
            init(value, *args, **kwargs)
        return wrapper

    for kind in (SpectralPairTable, CyclotomicFactorization):
        monkeypatch.setattr(kind, "__init__", recording(kind.__init__))
    for cached in (steenbrink_infinity, bounds.divisibility_bound_infinity,
                   bounds._curve_bound):
        cached.cache_clear()
    reports = [build_report(parse_spec(path.read_text()))
               for path in sorted(GOLDEN.glob("*.json"))]
    reports += census_rows(7)
    assert len(reports) == 7 + 32
    for report in reports:
        # the bound at infinity of a report's (n, d) may be made again here
        values = _tables_and_factorizations(report)
        recorded = {id(value) for value in made}
        assert len(values) >= 8
        missed = [type(v).__name__ for v in values if id(v) not in recorded]
        assert missed == [], (report.spec, missed)

