"""Boundary manifold invariants: the Alexander polynomial identity, the error
term, and every spectral-pair route."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    brieskorn_pham_explicit,
    expand,
    oracle_arrangement_table,
    oracle_boundary_alexander,
    oracle_curve_table,
    oracle_local_pair_sum,
    oracle_nonunipotent,
    pair_table,
    random_spec,
    runs,
    table_entries,
    weak_multisets,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    InvalidSpec,
    NotDivisible,
    Ordinary,
    boundary_alexander,
    boundary_pairs_arrangement,
    boundary_pairs_curve,
    boundary_pairs_nonunipotent,
    boundary_pairs_qhm,
    build_report,
    error_term,
    flatten_weights,
    milnor_dim_bruteforce,
    parse_spec,
    projective_curve_hodge,
    report_to_dict,
    spectral_bound_complement,
    steenbrink_infinity,
)

THREE_GENERIC_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(2), 3),)
)
THREE_CONCURRENT_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(3), 1),)
)
CUSPIDAL_CUBIC = HypersurfaceSpec(
    n=1, d=3, components=1, singularities=((Brieskorn(2, 3), 1),),
    rational_homology_manifold=True,
)
SMOOTH_CONIC = HypersurfaceSpec(
    n=1, d=2, components=1, rational_homology_manifold=True
)
SMOOTH_CUBIC = HypersurfaceSpec(
    n=1, d=3, components=1, rational_homology_manifold=True
)
GOLDEN = Path(__file__).parent / "golden"


def phi(factors, **kwargs):
    return CyclotomicFactorization(factors=factors, **kwargs)


def test_boundary_alexander_worked_examples():
    assert boundary_alexander(THREE_GENERIC_LINES) == phi({1: 6, 3: 1})
    assert boundary_alexander(THREE_CONCURRENT_LINES) == phi({1: 4, 3: 2})
    assert boundary_alexander(SMOOTH_CONIC) == phi({1: 2})
    assert boundary_alexander(CUSPIDAL_CUBIC) == phi({1: 4, 3: 1, 6: 1})


def test_boundary_alexander_degree_on_random_specs():
    rng = random.Random(20260808)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        spec = random_spec(rng, n)
        assert boundary_alexander(spec).degree == 2 * (spec.d - 1) ** (n + 1)


def test_boundary_alexander_matches_independent_oracle():
    rng = random.Random(1607)
    for _ in range(1000):
        spec = random_spec(rng, rng.choice((1, 2, 3)))
        assert boundary_alexander(spec) == oracle_boundary_alexander(spec)


def test_error_term_worked_examples():
    assert error_term(
        boundary_alexander(THREE_CONCURRENT_LINES), phi({1: 2, 3: 1})
    ) == CyclotomicFactorization()
    generic = error_term(boundary_alexander(THREE_GENERIC_LINES), phi({1: 2}))
    assert generic == phi({1: 2, 3: 1})
    assert generic.degree == 4
    assert error_term(
        boundary_alexander(SMOOTH_CONIC), CyclotomicFactorization()
    ) == phi({1: 2})


def test_error_term_rejects_inconsistent_delta_u():
    with pytest.raises(NotDivisible):
        error_term(boundary_alexander(THREE_GENERIC_LINES), phi({2: 1}))


def test_error_term_even_degree_on_random_divisible_cases():
    rng = random.Random(97)
    for _ in range(50):
        spec = random_spec(rng, rng.choice((1, 2)))
        delta_m = boundary_alexander(spec)
        # random divisor whose square still divides delta_M
        root = {
            k: rng.randint(0, m // 2) for k, m in delta_m.factors.items()
        }
        delta_u = phi({k: m for k, m in root.items() if m})
        assert error_term(delta_m, delta_u).degree % 2 == 0


def test_nonunipotent_worked_examples():
    assert boundary_pairs_nonunipotent(CUSPIDAL_CUBIC) == pair_table(
        {
            (0, 1, Fraction(5, 6)): 1,
            (1, 0, Fraction(1, 6)): 1,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )
    assert boundary_pairs_nonunipotent(THREE_GENERIC_LINES) == pair_table(
        {(0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1}
    )
    assert boundary_pairs_nonunipotent(SMOOTH_CONIC) == pair_table()


def test_curve_tables_worked_examples():
    assert boundary_pairs_curve(THREE_GENERIC_LINES) == pair_table(
        {
            (0, 0, 0): 3,
            (1, 1, 0): 3,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )
    cusp = boundary_pairs_curve(CUSPIDAL_CUBIC)
    assert cusp == pair_table(
        {
            (0, 0, 0): 2,
            (1, 1, 0): 2,
            (0, 1, Fraction(5, 6)): 1,
            (1, 0, Fraction(1, 6)): 1,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )
    assert cusp.total_dim() == 8
    smooth = boundary_pairs_curve(SMOOTH_CUBIC)
    assert smooth == pair_table(
        {
            (0, 0, 0): 2,
            (1, 1, 0): 2,
            (0, 1, 0): 1,
            (1, 0, 0): 1,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )


def test_arrangement_tables_worked_examples():
    assert boundary_pairs_arrangement(3, ((2, 3),)) == boundary_pairs_curve(
        THREE_GENERIC_LINES
    )
    assert boundary_pairs_arrangement(3, ((3, 1),)) == pair_table(
        {
            (0, 0, 0): 2,
            (1, 1, 0): 2,
            (0, 1, Fraction(2, 3)): 2,
            (1, 0, Fraction(1, 3)): 2,
        }
    )
    two_lines = boundary_pairs_arrangement(2, ((2, 1),))
    assert two_lines == pair_table({(0, 0, 0): 1, (1, 1, 0): 1})
    assert two_lines.total_dim() == 2


def test_braid_arrangement_of_six_lines():
    # four triple points and three double points on six lines
    spec = HypersurfaceSpec(
        n=1, d=6, components=6,
        singularities=((Ordinary(3), 4), (Ordinary(2), 3)),
    )
    delta_m = boundary_alexander(spec)
    assert delta_m == phi({1: 22, 2: 4, 3: 8, 6: 4})
    assert delta_m.degree == 50
    table = boundary_pairs_curve(spec)
    assert table == boundary_pairs_arrangement(6, ((3, 4), (2, 3)))
    rows = table.to_rows()
    assert [0, 0, "0/1", 11] in rows  # sum of (m_i - 1)
    # at 1/3 the triple points give mhat - 1 = 0, leaving dhat(1/3) - 1 = 1;
    # at 2/3 they give 1 each, plus dhat(2/3) - 1 = 3
    assert [0, 1, "1/3", 1] in rows
    assert [0, 1, "2/3", 7] in rows
    assert [0, 1, "5/6", 4] in rows
    assert table.total_dim() == 50


def test_arrangement_route_equals_curve_route_for_all_weak_data():
    from specpairs.cli import arrangement_spec

    for d in range(2, 8):
        for mults in weak_multisets(d):
            points = runs(mults)
            spec = arrangement_spec(d, points)
            assert boundary_pairs_arrangement(d, points) == boundary_pairs_curve(spec)


def test_census_tables_match_the_mhat_oracle():
    from specpairs.cli import census_rows

    for d in range(2, 9):
        for report in census_rows(d):
            mults = expand(report.spec)
            want = oracle_arrangement_table(d, mults)
            points = runs(mults)
            for table in (report.pairs_full, boundary_pairs_arrangement(d, points)):
                assert table_entries(table) == want, (d, mults)


def test_qhm_worked_examples():
    smooth_cubic = boundary_pairs_qhm(SMOOTH_CUBIC)
    assert smooth_cubic[2] == pair_table({(1, 1, 0): 2})
    assert smooth_cubic[1] == pair_table({(0, 1, 0): 1, (1, 0, 0): 1})
    assert smooth_cubic[0] == pair_table({(0, 0, 0): 2})

    conic = boundary_pairs_qhm(SMOOTH_CONIC)
    assert conic[2] == pair_table({(1, 1, 0): 1})
    assert conic[1] == pair_table()
    assert conic[0] == pair_table({(0, 0, 0): 1})

    surface = boundary_pairs_qhm(
        HypersurfaceSpec(n=2, d=3, components=1, rational_homology_manifold=True)
    )
    assert surface[3] == pair_table({(1, 2, 0): 1, (2, 1, 0): 1})
    assert surface[1] == pair_table({(0, 1, 0): 1, (1, 0, 0): 1})
    assert surface[2] == pair_table({(1, 1, 0): 6})


def test_qhm_flattened_total_mass_on_smooth_hypersurfaces():
    for n in (1, 2, 3):
        for d in range(2, 6):
            spec = HypersurfaceSpec(
                n=n, d=d, components=1, rational_homology_manifold=True
            )
            report = build_report(spec)
            assert report.pairs_full is not None
            assert report.pairs_full.total_dim() == 2 * (d - 1) ** (n + 1)


def test_qhm_nodal_cubic_surface():
    node = brieskorn_pham_explicit((2, 2, 2))
    spec = HypersurfaceSpec(
        n=2, d=3, components=1, singularities=((node, 1),),
        rational_homology_manifold=True,
    )
    weighted = boundary_pairs_qhm(spec)
    assert weighted[2] == pair_table({(1, 1, 0): 5})
    report = build_report(spec)
    assert report.pairs_full.total_dim() == 16
    assert report.pairs_full.level_dual(2) == report.pairs_full


def test_qhm_curve_routes_agree():
    for spec in (SMOOTH_CONIC, SMOOTH_CUBIC, CUSPIDAL_CUBIC):
        weighted = boundary_pairs_qhm(spec)
        merged = flatten_weights(weighted) + boundary_pairs_nonunipotent(spec)
        assert merged == boundary_pairs_curve(spec)


def test_qhm_requires_flag():
    with pytest.raises(ValueError):
        boundary_pairs_qhm(THREE_GENERIC_LINES)


def _infinity_oracle_specs(n, d):
    """The valid specs among a few of degree d in C^(n+1), each also with hD
    rows: the smooth rational homology manifold, and singular ones with and
    without the flag."""
    if n == 1:
        from specpairs.cli import arrangement_spec

        specs = [arrangement_spec(d, ((d, 1),))]  # d concurrent lines
        if d >= 3:
            specs.append(HypersurfaceSpec(n=1, d=d, components=1,
                                          singularities=((Brieskorn(2, 3), 1),),
                                          rational_homology_manifold=True))
    else:
        rhm_germ = brieskorn_pham_explicit((2, 2, 2) if n == 2 else (2, 2, 2, 3))
        specs = [
            HypersurfaceSpec(n=n, d=d, components=1, singularities=((germ, 1),),
                             rational_homology_manifold=rhm)
            for germ, rhm in ((rhm_germ, True),
                              (brieskorn_pham_explicit((2,) * (n + 1)), False))
        ]
    specs.append(HypersurfaceSpec(n=n, d=d, components=1,
                                  rational_homology_manifold=True))
    specs = [spec for spec in specs
             if all(v.severity != "error" for v in spec.violations)]
    h_d = tuple((p, n + 1 - p, p) for p in range(n + 2))
    return specs + [spec._replace(h_d=h_d) for spec in specs]


def _oracle_complement_bounds(spec, dim):
    n, d = spec.n, spec.d
    local = table_entries(spec.derived.local_pair_sum)
    h_d = {(p, q): c for p, q, c in spec.h_d or ()}
    bounds = {}
    for p in range(n + 1):
        for j in range(1, d):
            key = (p, n - p, Fraction(j, d))
            bounds[key] = min(local.get(key, 0), dim(p * d - n - 1 + j))
    for p in range(n + 2):
        key = (p, n + 1 - p, Fraction(0))
        bounds[key] = dim(p * d - n - 1)
        if spec.h_d is not None:
            bounds[key] = min(local.get(key, 0) + h_d.get(key[:2], 0), bounds[key])
    return {key: v for key, v in bounds.items() if v}


def _oracle_qhm(spec, dim):
    n, d = spec.n, spec.d
    local_grf = {}  # the local p-marginal, summed from the rows
    for p, _, _, c in spec.derived.local_pair_sum.to_rows():
        local_grf[p] = local_grf.get(p, 0) + c
    top = {(p, n + 1 - p, 0): dim(p * d - n - 1) for p in range(n + 2)}
    middle = {
        (p, n - p, 0): sum(dim(p * d + i - n - 1) for i in range(1, d))
        - local_grf.get(p, 0)
        for p in range(n + 1)
    }
    bottom = {(p, n - 1 - p, 0): dim((p + 1) * d - n - 1) for p in range(n)}
    return {
        n - 1: pair_table(bottom),
        n: pair_table(middle),
        n + 1: pair_table(top),
    }


def test_routes_at_infinity_match_the_bruteforce_formulas():
    # the complement bounds and the weight tables of rational homology
    # manifolds, each rebuilt from enumerated Milnor-algebra dimensions
    tested = 0
    for n in (1, 2, 3):
        for d in range(2, 6):
            def dim(m, n=n, d=d):
                return milnor_dim_bruteforce(n, d, m)

            for spec in _infinity_oracle_specs(n, d):
                got = table_entries(spectral_bound_complement(spec))
                assert got == _oracle_complement_bounds(spec, dim), spec
                if spec.rational_homology_manifold:
                    assert boundary_pairs_qhm(spec) == _oracle_qhm(spec, dim), spec
                tested += 1
    assert tested == 68


def test_qhm_rejects_oversized_local_hodge_data():
    # x^3 + y^4 + z^5 has consistent pairs and no eigenvalue 1, but two
    # spectral numbers below 1, while the smooth quartic surface has
    # h^{2,0} = 1
    fat = brieskorn_pham_explicit((3, 4, 5))
    assert fat.pairs.hodge_filtration_marginal()[0] == 2
    spec = HypersurfaceSpec(
        n=2, d=4, components=1, singularities=((fat, 1),),
        rational_homology_manifold=True,
    )
    with pytest.raises(InvalidSpec) as info:
        boundary_pairs_qhm(spec)
    assert info.value.violations[0].code == "rhm_inconsistent"


def test_curve_route_with_non_semisimple_explicit_germ():
    # a germ whose non-unipotent part carries size-2 Jordan blocks: entries of
    # type (0,0) and (1,1) at alpha > 0, which no built-in model produces
    germ = Explicit(
        milnor=4,
        branches=1,
        alexander=phi({3: 2}),
        pairs=pair_table(
            {
                (0, 0, Fraction(1, 3)): 1,
                (0, 0, Fraction(2, 3)): 1,
                (1, 1, Fraction(1, 3)): 1,
                (1, 1, Fraction(2, 3)): 1,
            }
        ),
    )
    spec = HypersurfaceSpec(n=1, d=4, components=1, singularities=((germ, 1),))
    from specpairs import validate

    assert validate(spec) == []
    full = boundary_pairs_curve(spec)
    rows = full.to_rows()
    assert [0, 0, "1/3", 1] in rows and [1, 1, "1/3", 1] in rows
    assert full.nonunipotent() == boundary_pairs_nonunipotent(spec)
    assert full.total_dim() == boundary_alexander(spec).degree == 18
    assert full.conjugate() == full
    assert full.level_dual(1) == full


def test_betti_and_jordan_examples():
    for spec, b1, j1 in (
        (THREE_GENERIC_LINES, 6, 5), (CUSPIDAL_CUBIC, 3, 2), (SMOOTH_CONIC, 2, 1)
    ):
        assert (spec.derived.b1, spec.derived.j1) == (b1, j1)


def test_projective_curve_hodge_examples():
    lines = projective_curve_hodge(THREE_GENERIC_LINES)["projective"]
    assert lines[(1, 0, 0)] == 1
    assert lines[(2, 1, 1)] == 3
    smooth = projective_curve_hodge(SMOOTH_CUBIC)["projective"]
    assert smooth[(1, 0, 1)] == 1 and smooth[(1, 1, 0)] == 1
    assert (1, 0, 0) not in smooth  # zero entries are dropped
    cusp = projective_curve_hodge(CUSPIDAL_CUBIC)["compact_support"]
    assert cusp[(1, 0, 0)] == 2


def _primitive_middle(n, d):
    """Primitive middle Hodge numbers h^{p, n-p} of a smooth degree-d
    hypersurface in P^(n+1), read off the table at infinity."""
    marginal = steenbrink_infinity(n, d).nonunipotent().hodge_filtration_marginal()
    return [marginal.get(p, 0) for p in range(n + 1)]


def test_smooth_primitive_middle_against_known_hodge_numbers():
    # plane curves: genus of the smooth degree-d curve
    assert [_primitive_middle(1, d)[0] for d in (2, 3, 4, 5)] == [0, 1, 3, 6]
    # surfaces: quadric 0,1,0; cubic 0,6,0; quartic (K3) 1,19,1
    assert _primitive_middle(2, 2) == [0, 1, 0]
    assert _primitive_middle(2, 3) == [0, 6, 0]
    assert _primitive_middle(2, 4) == [1, 19, 1]


def test_projective_space_hodge():
    # primitive + the hyperplane class of P^3 = full middle cohomology:
    # b2 = 7 for the cubic surface, and 2, 22 for the quadric and quartic
    assert _primitive_middle(2, 3)[1] + 1 == 7
    assert [sum(_primitive_middle(2, d)) + 1 for d in (2, 3, 4)] == [2, 7, 22]


def test_full_invariants_none_outside_exact_cases():
    surface = HypersurfaceSpec(n=2, d=3, components=1)
    report = build_report(surface)
    assert report.pairs_full is None
    assert set(report_to_dict(report)["tables"]) == {"nonunipotent", "weights_resolved"}
    assert report.weight_resolved is None
    assert report.delta_m.degree == 16


def test_boundary_alexander_negative_exponent():
    # mu = -4 with a unibranch germ would push the t - 1 exponent below zero
    overloaded = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((Brieskorn(2, 9), 1),)
    )
    with pytest.raises(InvalidSpec) as info:
        boundary_alexander(overloaded)
    assert info.value.violations[0].code == "negative_mu"


def test_curve_table_parity_violation():
    # the genus term has the parity of the non-unipotent local mass, which is
    # even for every germ whose table is conjugation-symmetric and self-dual;
    # so an odd one comes only with an inconsistent explicit germ
    odd_germ = Explicit(
        milnor=1,
        branches=1,
        alexander=CyclotomicFactorization(factors={2: 1}),
        pairs=pair_table({(0, 1, Fraction(1, 2)): 1}),
    )
    spec = HypersurfaceSpec(n=1, d=3, components=1, singularities=((odd_germ, 1),))
    with pytest.raises(InvalidSpec) as info:
        boundary_pairs_curve(spec)
    assert [v.code for v in info.value.violations] == [
        "explicit_inconsistent", "explicit_inconsistent", "parity_violation"
    ]


def _assert_table_sums_match_the_oracle(spec):
    assert table_entries(spec.derived.local_pair_sum) == oracle_local_pair_sum(spec)
    assert table_entries(boundary_pairs_nonunipotent(spec)) == oracle_nonunipotent(spec)
    if spec.n == 1:
        assert table_entries(boundary_pairs_curve(spec)) == oracle_curve_table(spec)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from((1, 1, 2, 3)))
def test_table_sums_match_the_counter_oracle_on_random_specs(seed, n):
    _assert_table_sums_match_the_oracle(random_spec(random.Random(seed), n))


@pytest.mark.parametrize(
    "spec",
    [*(parse_spec(path.read_text(encoding="utf-8"))
       for path in sorted(GOLDEN.glob("*.json"))),
     # one germ listed twice, and germs whose denominators differ from d
     HypersurfaceSpec(n=1, d=6, components=6,
                      singularities=((Ordinary(3), 2), (Ordinary(2), 3),
                                     (Ordinary(3), 2))),
     HypersurfaceSpec(n=1, d=8, components=1,
                      singularities=((Brieskorn(3, 7), 1), (Brieskorn(4, 5), 2)))],
)
def test_table_sums_match_the_counter_oracle_on_fixed_specs(spec):
    _assert_table_sums_match_the_oracle(spec)
