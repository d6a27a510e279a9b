"""Input parsing, validation and derived quantities."""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    brieskorn_pham_explicit,
    oracle_shared_line_violations,
    pair_table,
    runs,
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
    build_report,
    derived_quantities,
    divisibility_bound_local,
    parse_spec,
    projective_curve_hodge,
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
        line_arrangement=True,
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
        "Explicit(milnor=2, branches=1, alexander=", "pairs",
        lambda: Explicit(milnor=2, branches=0,
                         alexander=CyclotomicFactorization({6: 1}), pairs=pair_table()),
    ),
    "HypersurfaceSpec": (
        _cuspidal_cubic,
        "HypersurfaceSpec(n=1, d=3, components=1, "
        "singularities=((Brieskorn(a=2, b=3), 1),), line_arrangement=False",
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
        with pytest.raises(TypeError):  # its checks and warnings are lists
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
    if isinstance(value, Ordinary):  # the same exponents (2, 2), another kind
        assert value != Brieskorn(2, 2)


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
        line_arrangement=True,
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
        line_arrangement=True,
    )
    assert [str(v) for v in validate(spec)] == [
        "[error] pair_count: multiplicities (4, 2, 2, 2) account for 9 line "
        "pairs, but C(5,2) = 10"
    ]


def test_shared_line_heuristic_is_a_warning():
    spec = HypersurfaceSpec(
        n=1, d=4, components=4,
        singularities=((Ordinary(3), 2),),
        line_arrangement=True,
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
        line_arrangement=True,
    )
    start = time.perf_counter()
    violations = validate(spec)
    assert time.perf_counter() - start < 2.0
    assert violations == []


def test_line_arrangement_shape_rules():
    assert "line_arrangement_shape" in codes(
        HypersurfaceSpec(n=1, d=3, components=2,
                         singularities=((Ordinary(2), 3),), line_arrangement=True)
    )
    assert "line_arrangement_shape" in codes(
        HypersurfaceSpec(n=1, d=3, components=3,
                         singularities=((Brieskorn(2, 3), 1),), line_arrangement=True)
    )


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
        divisibility_bound_local, spectral_bound_complement,
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
    # a reduced polynomial in one variable has only simple roots
    for germ in (Ordinary(2), brieskorn_pham_explicit((2,))):
        spec = HypersurfaceSpec(n=0, d=5, components=1, singularities=((germ, 1),))
        assert "zero_dimensional" in codes(spec)
    assert validate(HypersurfaceSpec(n=0, d=5, components=1)) == []


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
    # the derived dimensions are the p-marginal of the pair table either way
    assert surface(None).derived.local_grf == ((1, 1),)


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
    spec = HypersurfaceSpec(
        n=n, d=d, components=1, singularities=tuple(singularities),
        line_arrangement=lines,
    )
    assert _work_estimate(spec) == work_estimate_closed_form(spec)


def test_golden_specs_are_priced_as_the_closed_form_did():
    specs = [parse_spec(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
    assert len(specs) == 7
    for spec in specs:
        assert _work_estimate(spec) == work_estimate_closed_form(spec)

