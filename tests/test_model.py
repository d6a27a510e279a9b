"""Input parsing, validation and derived quantities."""

from __future__ import annotations

import contextlib
import json
import random
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from helpers import (
    brieskorn_pham_explicit,
    consistent_as_lines,
    oracle_shared_line_violations,
    pair_table,
    random_curve_draw,
    random_spec,
    runs,
    table_entries,
    work_estimate_closed_form,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Brieskorn,
    Check,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    InvalidSpec,
    InvariantReport,
    MalformedDocument,
    Ordinary,
    Violation,
    boundary_alexander,
    boundary_pairs_curve,
    boundary_pairs_nonunipotent,
    boundary_pairs_qhm,
    build_report,
    derived_quantities,
    parse_spec,
    projective_curve_hodge,
    report_to_dict,
    serialize_spec,
    spectral_bound_complement,
    validate,
)
from specpairs import model
from specpairs.cli import census_rows
from specpairs.model import _work_estimate, shared_line_violations

THREE_GENERIC_LINES_DOC = {
    "ambient_dim": 2,
    "degree": 3,
    "components": 3,
    "line_arrangement": True,
    "rational_homology_manifold": False,
    "singularities": [{"kind": "ordinary", "multiplicity": 2, "count": 3}],
}


def codes(spec):
    return {v.code for v in validate(spec)}


def test_parse_three_generic_lines():
    spec = parse_spec(json.dumps(THREE_GENERIC_LINES_DOC))
    assert spec == HypersurfaceSpec(
        n=1,
        d=3,
        components=3,
        singularities=((Ordinary(2), 3),),
    )
    assert validate(spec) == []


def test_parse_all_singularity_kinds_and_round_trip():
    explicit = brieskorn_pham_explicit((2, 3, 4))
    spec = HypersurfaceSpec(
        n=2,
        d=5,
        components=1,
        singularities=((explicit, 2),),
        delta_u=CyclotomicFactorization(factors={1: 1}),
        h_d=((1, 2, 1),),
    )
    assert parse_spec(serialize_spec(spec)) == spec

    curve = HypersurfaceSpec(
        n=1,
        d=4,
        components=2,
        singularities=((Brieskorn(2, 3), 1), (Ordinary(2), 2)),
    )
    assert parse_spec(json.dumps(serialize_spec(curve))) == curve


def _cuspidal_cubic():
    return parse_spec((GOLDEN / "cuspidal_cubic.json").read_text(encoding="utf-8"))


# Each record of the package as (a maker, the start of its repr, one of its
# fields, a call its constructor refuses or None where it checks nothing).
RECORDS = {
    "Violation": (
        lambda: Violation("degree", "degree 1 < 2"),
        "Violation(code='degree', message='degree 1 < 2', severity='error')",
        "code", None,
    ),
    "Check": (
        lambda: Check("degree_identity", True, "identity"),
        "Check(name='degree_identity', passed=True, kind='identity', detail='')",
        "passed", None,
    ),
    "Ordinary": (
        lambda: Ordinary(2), "Ordinary(multiplicity=2)", "multiplicity",
        lambda: Ordinary(1),
    ),
    "Brieskorn": (
        lambda: Brieskorn(2, 3), "Brieskorn(a=2, b=3)", "a", lambda: Brieskorn(2, 1),
    ),
    "Explicit": (
        lambda: brieskorn_pham_explicit((2, 3)),
        "Explicit(pairs=SpectralPairTable({(0,1,5/6): 1, (1,0,1/6): 1}), milnor=2,",
        "pairs",
        lambda: Explicit(milnor=2, branches=0,
                         alexander=CyclotomicFactorization({6: 1}), pairs=pair_table()),
    ),
    "HypersurfaceSpec": (
        _cuspidal_cubic,
        "HypersurfaceSpec(n=1, d=3, components=1, "
        "singularities=((Brieskorn(a=2, b=3), 1),), rational_homology_manifold=False",
        "d", None,
    ),
    "Derived": (lambda: _cuspidal_cubic().derived, "Derived(mu=2, xi=1, ", "mu", None),
    "InvariantReport": (
        lambda: build_report(_cuspidal_cubic()),
        "InvariantReport(spec=HypersurfaceSpec(n=1, d=3, ", "checks", None,
    ),
}


@pytest.mark.parametrize("make, text, field, refused", RECORDS.values(), ids=RECORDS)
def test_records_are_frozen_values(make, text, field, refused):
    value, twin = make(), make()
    assert value is not twin
    assert repr(value).startswith(text)
    assert value == twin
    if isinstance(value, InvariantReport):
        with pytest.raises(TypeError):  # its checks are a list
            hash(value)
    else:
        assert hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    if refused is not None:
        with pytest.raises(ValueError):
            refused()
    if isinstance(value, HypersurfaceSpec):
        assert parse_spec(serialize_spec(value)) == value
        # the kept values fill, and no assignment replaces or adds one: an
        # assigned violations list would get past the gate of derived
        assert value.derived.mu == 2
        for name in ("violations", "derived", "_unchecked", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, [])
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value.violations == () and "extra" not in vars(value)
    if isinstance(value, Ordinary):  # the same exponents (2, 2), another kind
        assert value != Brieskorn(2, 2)


def test_emptying_the_violations_does_not_open_the_gate():
    # the kept violations are a tuple: emptying them in place would let
    # build_report compute from a spec that validation refuses
    for components, singularities, code in ((1, ((Ordinary(5), 1),), "negative_mu"),
                                            (3, ((Ordinary(2), 2),), "pair_count")):
        spec = HypersurfaceSpec(n=1, d=3, components=components,
                                singularities=singularities)
        with contextlib.suppress(AttributeError):
            spec.violations.clear()
        with pytest.raises(InvalidSpec) as info:
            build_report(spec)
        assert [v.code for v in info.value.violations] == [code]


def test_the_milnor_total_is_made_once_per_spec(monkeypatch):
    # validate (the negative_mu rule) and derived_quantities both read the
    # count-weighted sum of the local Milnor numbers; a spec makes it once
    made = []

    def counting_sum(values, *start):
        if sys._getframe(1).f_code.co_name == "_local_milnor_total":
            made.append(1)
        return sum(values, *start)

    monkeypatch.setattr(model, "sum", counting_sum, raising=False)
    rows = sum(1 for _ in census_rows(10))
    assert (rows, len(made)) == (295, 295)


def test_malformed_documents():
    with pytest.raises(MalformedDocument):
        parse_spec("{not json")
    with pytest.raises(MalformedDocument):
        parse_spec(json.dumps({"degree": 3, "components": 1}))
    with pytest.raises(MalformedDocument):
        parse_spec(json.dumps({"ambient_dim": 2, "degree": "x", "components": 1}))
    with pytest.raises(MalformedDocument):
        parse_spec(
            json.dumps(
                {
                    "ambient_dim": 2,
                    "degree": 3,
                    "components": 1,
                    "singularities": [{"kind": "mystery"}],
                }
            )
        )


def test_negative_mu_rejected():
    # total local Milnor number 5 > (d-1)^2 = 4
    spec = HypersurfaceSpec(
        n=1, d=3, components=1,
        singularities=((Brieskorn(2, 3), 1), (Brieskorn(2, 4), 1),),
    )
    assert "negative_mu" in codes(spec)


def test_too_many_components():
    assert "too_many_components" in codes(
        HypersurfaceSpec(n=1, d=2, components=3)
    )


def test_parity_violation():
    # explicit germ with mu + branches - 1 odd trips the curve parity rule
    bad = Explicit(
        milnor=1,
        branches=1,
        alexander=CyclotomicFactorization(factors={2: 1}),
        pairs=pair_table({(0, 1, Fraction(1, 2)): 1}),
    )
    spec = HypersurfaceSpec(n=1, d=3, components=1, singularities=((bad, 1),))
    found = codes(spec)
    assert "parity_violation" in found or "negative_count" in found


def test_pair_count_enforced_for_arrangements():
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(2), 5),),
    )
    assert "pair_count" in codes(spec)


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_a_point_on_more_than_d_lines_is_negative_mu_alone(d):
    # Ordinary(d + 1) has Milnor number d^2 > (d - 1)^2, so negative_mu ends
    # validation before any line-arrangement rule reads the multiplicity
    from specpairs.cli import arrangement_spec

    violations = validate(arrangement_spec(d, [(d + 1, 1)]))
    assert [v.code for v in violations] == ["negative_mu"]


def test_pair_count_message_lists_every_point_in_descending_order():
    # the points of one multiplicity split over two entries, in mixed order
    spec = HypersurfaceSpec(
        n=1, d=5, components=5,
        singularities=((Ordinary(2), 2), (Ordinary(4), 1), (Ordinary(2), 1)),
    )
    assert [str(v) for v in validate(spec)] == [
        "[error] pair_count: multiplicities (4, 2, 2, 2) account for 9 line "
        "pairs, but C(5,2) = 10"
    ]


def test_shared_line_heuristic_is_a_warning():
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(3), 2),),
    )
    violations = validate(spec)
    assert [v.code for v in violations] == ["shared_line"]
    assert violations[0].severity == "warning"


def test_shared_line_violations_match_the_pairwise_definition():
    rng = random.Random(20261018)
    for _ in range(500):
        d = rng.randint(2, 10)
        mults = [rng.randint(2, d + 1) for _ in range(rng.randint(0, 12))]
        want = oracle_shared_line_violations(d, mults)
        assert shared_line_violations(d, runs(mults)) == want
        # the same points split into runs at random and shuffled, so that
        # a multiplicity may repeat across runs in any order
        split = []
        for m, count in runs(mults):
            while count:
                part = rng.randint(1, count)
                split.append((m, part))
                count -= part
        rng.shuffle(split)
        assert shared_line_violations(d, split) == want, (d, split)


def test_validate_on_a_300_line_generic_arrangement_stays_fast():
    # 44,850 double points: the shared-line scan must not compare every pair
    spec = HypersurfaceSpec(
        n=1, d=300, components=300,
        singularities=((Ordinary(2), 300 * 299 // 2),),
    )
    start = time.perf_counter()
    violations = validate(spec)
    assert time.perf_counter() - start < 2.0
    assert violations == []


def test_line_arrangement_shape_rules():
    # a curve of degree d with d components is d lines, which meet in
    # ordinary points
    assert "line_arrangement_shape" in codes(
        HypersurfaceSpec(n=1, d=3, components=3,
                         singularities=((Brieskorn(2, 3), 1),))
    )
    # fewer components, or a surface, is no arrangement: no arrangement rule runs
    for spec in (
        HypersurfaceSpec(n=1, d=3, components=2, singularities=((Ordinary(2), 3),)),
        HypersurfaceSpec(n=1, d=4, components=3, singularities=((Brieskorn(2, 3), 1),)),
        HypersurfaceSpec(n=2, d=3, components=3),
    ):
        assert not spec.line_arrangement
        assert not {"line_arrangement_shape", "pair_count", "shared_line"} & codes(spec)


def test_random_curve_draws_that_are_not_d_lines_are_refused():
    # random_curve_spec draws again where random_curve_draw gives d
    # components that are not consistent as d lines; validate refuses those
    rng = random.Random(0)
    refused = lines = 0
    for _ in range(1000):
        spec = random_curve_draw(rng)
        assert spec.line_arrangement == (spec.components == spec.d)
        if not spec.line_arrangement:
            continue
        errors = {v.code for v in spec.violations if v.severity == "error"}
        if consistent_as_lines(spec):
            assert not errors, spec
            lines += 1
        else:
            assert errors and errors <= {"line_arrangement_shape", "pair_count"}, spec
            refused += 1
    assert refused > 20 and lines > 100


def test_higher_dimension_constraints():
    assert "multi_component" in codes(
        HypersurfaceSpec(n=2, d=3, components=2)
    )
    assert "builtin_dimension" in codes(
        HypersurfaceSpec(n=2, d=3, components=1, singularities=((Ordinary(2), 1),))
    )


def test_explicit_consistency_checks():
    wrong_degree = Explicit(
        milnor=3,
        branches=1,
        alexander=CyclotomicFactorization(factors={2: 1}),
        pairs=pair_table(
            {(0, 1, Fraction(1, 2)): 1, (1, 0, Fraction(1, 2)): 1, (1, 1, 0): 1}
        ),
    )
    spec = HypersurfaceSpec(n=1, d=4, components=1,
                            singularities=((wrong_degree, 1),))
    assert "explicit_inconsistent" in codes(spec)

    asymmetric = Explicit(
        milnor=2,
        branches=1,
        alexander=CyclotomicFactorization(factors={3: 1}),
        pairs=pair_table(
            {(0, 1, Fraction(1, 3)): 1, (0, 1, Fraction(2, 3)): 1}
        ),
    )
    spec = HypersurfaceSpec(n=1, d=4, components=1,
                            singularities=((asymmetric, 1),))
    assert "explicit_inconsistent" in codes(spec)


def test_rhm_flag_constraints():
    assert "rhm_inconsistent" in codes(
        HypersurfaceSpec(n=1, d=3, components=3,
                         singularities=((Ordinary(2), 3),),
                         rational_homology_manifold=True)
    )
    assert "rhm_inconsistent" in codes(
        HypersurfaceSpec(n=1, d=3, components=2,
                         rational_homology_manifold=True)
    )
    clean = HypersurfaceSpec(n=1, d=3, components=1,
                             singularities=((Brieskorn(2, 3), 1),),
                             rational_homology_manifold=True)
    assert validate(clean) == []


def test_every_route_raises_invalid_spec_with_the_validate_codes():
    overloaded = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((Brieskorn(2, 9), 1),)
    )
    routes = (
        boundary_alexander, boundary_pairs_nonunipotent, boundary_pairs_curve,
        lambda spec: spec.derived.local_bound, spectral_bound_complement,
        projective_curve_hodge, build_report,
    )
    for route in routes:
        with pytest.raises(InvalidSpec) as info:
            route(overloaded)
        assert info.value.violations == validate(overloaded)


@pytest.mark.parametrize("rows", [((1, 1, 5), (1, 1, 0)), ((1, 1, 0), (1, 1, 5))])
def test_a_repeated_hd_row_is_an_error_in_either_order(rows):
    # the later row must not silently win (bound_at((1, 1, 0)) read 0 or 5)
    spec = HypersurfaceSpec(n=1, d=10, components=1, h_d=rows)
    assert codes(spec) == {"repeated_hd"}
    with pytest.raises(InvalidSpec) as info:
        spec.derived
    assert [v.code for v in info.value.violations] == ["repeated_hd"]
    distinct = HypersurfaceSpec(n=1, d=10, components=1, h_d=((1, 1, 5), (0, 2, 0)))
    assert validate(distinct) == []


def test_zero_dimensional_hypersurfaces_have_no_singular_points():
    # a reduced polynomial in one variable has only simple roots, d of them,
    # so D has d components
    for germ in (Ordinary(2), brieskorn_pham_explicit((2,))):
        spec = HypersurfaceSpec(n=0, d=5, components=5, singularities=((germ, 1),))
        assert "zero_dimensional" in codes(spec)
    assert validate(HypersurfaceSpec(n=0, d=5, components=5)) == []
    # any other component count gets exactly one violation
    for r in (1, 4):
        assert [v.code for v in validate(HypersurfaceSpec(n=0, d=5, components=r))] \
            == ["zero_dimensional"]
    assert [v.code for v in validate(HypersurfaceSpec(n=0, d=5, components=6))] \
        == ["too_many_components"]


def test_explicit_grf_dims_must_match_the_pair_table():
    node = brieskorn_pham_explicit((2, 2, 2))
    assert node.grf_dims == ((1, 1),)

    def surface(grf_dims):
        germ = Explicit(milnor=node.milnor, branches=node.branches,
                        alexander=node.alexander, pairs=node.pairs,
                        grf_dims=grf_dims)
        return HypersurfaceSpec(n=2, d=3, components=1,
                                singularities=((germ, 1),),
                                rational_homology_manifold=True)

    for grf_dims in (None, ((1, 1),), ((0, 0), (1, 1))):  # zero entries ignored
        assert validate(surface(grf_dims)) == []
    for grf_dims in (((1, 2),), ((1, 0),), ((-1, 1),), ((1, 1), (1, 1)), ()):
        assert codes(surface(grf_dims)) == {"explicit_inconsistent"}
    # the derived dimensions are the p-marginal of the pair table either way:
    # the node takes one from h^{1,1} = 6 of the smooth cubic surface
    for grf_dims in (None, ((1, 1),)):
        derived = surface(grf_dims).derived
        assert derived.local_pair_sum.hodge_filtration_marginal() == {1: 1}
        assert model.middle_hodge_numbers(2, derived) == [0, 5, 0]


def _p_marginal(rows) -> dict[int, int]:
    """Total count per level p of table rows [p, q, "a/b", count]."""
    out: dict[int, int] = {}
    for p, _, _, c in rows:
        out[p] = out.get(p, 0) + c
    return out


def test_middle_hodge_numbers_are_the_smooth_numbers_less_the_local_ones():
    # every golden document (nodal_cubic_surface and rhm_quintic are
    # rational homology manifolds), random specs flagged as one and a
    # surface with an oversized germ: the negative numbers are at the
    # levels where the summed local dim Gr_F^p exceeds the smooth
    # hypersurface's, the level the rhm_inconsistent rule names is the
    # first of them, and the weight-n table of a valid spec holds the
    # nonzero numbers
    specs = [parse_spec(path.read_text(encoding="utf-8"))
             for path in sorted(GOLDEN.glob("*.json"))]
    assert [spec.d for spec in specs if spec.rational_homology_manifold] == [3, 5]
    rng = random.Random(29)
    specs += [random_spec(rng, rng.choice((1, 2, 3)))
              ._replace(rational_homology_manifold=True) for _ in range(60)]
    big = HypersurfaceSpec(n=2, d=4, components=1, rational_homology_manifold=True,
                           singularities=((brieskorn_pham_explicit((3, 4, 5)), 1),))
    specs.append(big)
    named = tables = 0
    for spec in specs:
        n, derived = spec.n, spec._unchecked
        smooth = _p_marginal(row for row in derived.infinity.to_rows()
                             if row[2] != "0/1")
        local = _p_marginal(derived.local_pair_sum.to_rows())
        levels = [p for p in sorted(local) if 0 <= p <= n and local[p] > smooth.get(p, 0)]
        numbers = model.middle_hodge_numbers(n, derived)
        assert [p for p, c in enumerate(numbers) if c < 0] == levels
        rule = [v.message for v in spec.violations if "filtration level" in v.message]
        if not spec.rational_homology_manifold:
            assert rule == []
        elif levels:
            named += 1
            assert rule == ["local Hodge data exceeds the smooth hypersurface "
                            f"numbers at filtration level {levels[0]}"]
        elif not [v for v in spec.violations if v.severity == "error"]:
            tables += 1
            expected = {(p, n - p, 0): smooth.get(p, 0) - local.get(p, 0)
                        for p in range(n + 1)}
            assert table_entries(boundary_pairs_qhm(spec)[n]) == {
                key: c for key, c in expected.items() if c}
    assert named >= 5 and tables >= 20


def test_count_positive():
    assert "count_nonpositive" in codes(
        HypersurfaceSpec(n=1, d=3, components=1,
                         singularities=((Ordinary(2), 0),))
    )


def test_derived_quantities_examples():
    lines = derived_quantities(
        HypersurfaceSpec(n=1, d=3, components=3,
                         singularities=((Ordinary(2), 3),))
    )
    assert (lines.mu, lines.xi, lines.b1, lines.j1) == (1, 1, 6, 5)
    cusp = derived_quantities(
        HypersurfaceSpec(n=1, d=3, components=1,
                         singularities=((Brieskorn(2, 3), 1),))
    )
    assert (cusp.mu, cusp.xi, cusp.b1, cusp.j1) == (2, 1, 3, 2)
    quartic_surface = derived_quantities(
        HypersurfaceSpec(n=2, d=4, components=1)
    )
    assert (quartic_surface.mu, quartic_surface.xi) == (27, 7)
    assert quartic_surface.b1 is None and quartic_surface.j1 is None


def test_xi_is_integral_for_all_small_parameters():
    for n in range(0, 7):
        for d in range(2, 13):
            assert ((d - 1) ** (n + 1) + (-1) ** n) % d == 0


GOLDEN = Path(__file__).parent / "golden"
germs = st.one_of(
    st.builds(Ordinary, st.integers(min_value=2, max_value=10**4)),
    st.builds(
        Brieskorn,
        st.integers(min_value=2, max_value=10**4),
        st.integers(min_value=2, max_value=10**4),
    ),
    st.tuples(st.integers(2, 5), st.integers(2, 5)).map(brieskorn_pham_explicit),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=2, max_value=10**4),
    st.lists(st.tuples(germs, st.integers(min_value=1, max_value=10**4)), max_size=4),
    st.booleans(),
)
def test_each_germ_prices_itself_as_the_closed_form_did(n, d, singularities, lines):
    # d components on a curve make a line arrangement, which prices its points
    spec = HypersurfaceSpec(
        n=1 if lines else n, d=d, components=d if lines else 1,
        singularities=tuple(singularities),
    )
    assert spec.line_arrangement == lines
    assert _work_estimate(spec) == work_estimate_closed_form(spec)
    # no estimate rises over the price each germ had while an ordinary point
    # cost 64 m and a Brieskorn germ mu // 2 + 32 min(mu, 2 lcm(a, b))
    earlier = _work_estimate(spec)
    for s, _ in spec.singularities:
        if isinstance(s, Ordinary):
            earlier += 64 * s.multiplicity - s.work
        elif isinstance(s, Brieskorn):
            mu = s.milnor
            earlier += mu // 2 + 32 * min(mu, 2 * lcm(s.a, s.b)) - s.work
    assert _work_estimate(spec) <= earlier


def test_an_ordinary_point_is_the_brieskorn_germ_at_one_price():
    for m in range(2, 61):
        assert isinstance(Ordinary(m), Brieskorn)
        assert Ordinary(m) != Brieskorn(m, m)
        assert Ordinary(m).work == Brieskorn(m, m).work
    # 4,500 lines through one point, the germ x^4500 + y^4500, written both ways
    written = [parse_spec({"ambient_dim": 2, "degree": 4500, "components": 4500,
                           "singularities": [{**entry, "count": 1}]}) for entry in (
        {"kind": "ordinary", "multiplicity": 4500},
        {"kind": "brieskorn", "exponents": [4500, 4500]},
    )]
    assert [_work_estimate(spec) for spec in written] == [602_931] * 2
    reports = [build_report(spec) for spec in written]
    assert all(report.all_passed for report in reports)
    ordinary, brieskorn = (report_to_dict(report) for report in reports)
    assert ordinary.pop("spec")["singularities"][0]["kind"] == "ordinary"
    assert brieskorn.pop("spec")["singularities"][0]["kind"] == "brieskorn"
    assert ordinary == brieskorn


def test_golden_specs_are_priced_as_the_closed_form_did():
    specs = [parse_spec(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
    assert len(specs) == 7
    for spec in specs:
        assert _work_estimate(spec) == work_estimate_closed_form(spec)

