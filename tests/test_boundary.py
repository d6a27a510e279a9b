"""Boundary manifold invariants: the Alexander polynomial identity, the error
term, and every spectral-pair route."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from helpers import brieskorn_pham_explicit, oracle_boundary_alexander, random_spec

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    NotDivisible,
    Ordinary,
    SpectralPairTable,
    boundary_alexander,
    boundary_pairs_arrangement,
    boundary_pairs_curve,
    boundary_pairs_nonunipotent,
    boundary_pairs_qhm,
    compute_boundary_invariants,
    error_term,
    flatten_weights,
    projective_curve_hodge,
    smooth_primitive_middle,
)
from specpairs.boundary import projective_space_hodge

THREE_GENERIC_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(2), 3),), line_arrangement=True
)
THREE_CONCURRENT_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(3), 1),), line_arrangement=True
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
        THREE_CONCURRENT_LINES, phi({1: 2, 3: 1})
    ) == CyclotomicFactorization()
    generic = error_term(THREE_GENERIC_LINES, phi({1: 2}))
    assert generic == phi({1: 2, 3: 1})
    assert generic.degree == 4
    assert error_term(SMOOTH_CONIC, CyclotomicFactorization()) == phi({1: 2})


def test_error_term_rejects_inconsistent_delta_u():
    with pytest.raises(NotDivisible):
        error_term(THREE_GENERIC_LINES, phi({2: 1}))


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
        assert error_term(spec, delta_u).degree % 2 == 0


def test_nonunipotent_worked_examples():
    assert boundary_pairs_nonunipotent(CUSPIDAL_CUBIC) == SpectralPairTable(
        {
            (0, 1, Fraction(5, 6)): 1,
            (1, 0, Fraction(1, 6)): 1,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )
    assert boundary_pairs_nonunipotent(THREE_GENERIC_LINES) == SpectralPairTable(
        {(0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1}
    )
    assert boundary_pairs_nonunipotent(SMOOTH_CONIC).is_empty


def test_curve_tables_worked_examples():
    assert boundary_pairs_curve(THREE_GENERIC_LINES) == SpectralPairTable(
        {
            (0, 0, 0): 3,
            (1, 1, 0): 3,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )
    cusp = boundary_pairs_curve(CUSPIDAL_CUBIC)
    assert cusp == SpectralPairTable(
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
    assert smooth == SpectralPairTable(
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
    assert boundary_pairs_arrangement(3, (2, 2, 2)) == boundary_pairs_curve(
        THREE_GENERIC_LINES
    )
    assert boundary_pairs_arrangement(3, (3,)) == SpectralPairTable(
        {
            (0, 0, 0): 2,
            (1, 1, 0): 2,
            (0, 1, Fraction(2, 3)): 2,
            (1, 0, Fraction(1, 3)): 2,
        }
    )
    two_lines = boundary_pairs_arrangement(2, (2,))
    assert two_lines == SpectralPairTable({(0, 0, 0): 1, (1, 1, 0): 1})
    assert two_lines.total_dim() == 2


def test_braid_arrangement_of_six_lines():
    # four triple points and three double points on six lines
    spec = HypersurfaceSpec(
        n=1, d=6, components=6,
        singularities=((Ordinary(3), 4), (Ordinary(2), 3)),
        line_arrangement=True,
    )
    delta_m = boundary_alexander(spec)
    assert delta_m == phi({1: 22, 2: 4, 3: 8, 6: 4})
    assert delta_m.degree == 50
    table = boundary_pairs_curve(spec)
    assert table == boundary_pairs_arrangement(6, (3, 3, 3, 3, 2, 2, 2))
    assert table.get((0, 0, Fraction(0))) == 11  # sum of (m_i - 1)
    # at 1/3 the triple points give mhat - 1 = 0, leaving dhat(1/3) - 1 = 1;
    # at 2/3 they give 1 each, plus dhat(2/3) - 1 = 3
    assert table.get((0, 1, Fraction(1, 3))) == 1
    assert table.get((0, 1, Fraction(2, 3))) == 7
    assert table.get((0, 1, Fraction(5, 6))) == 4
    assert table.total_dim() == 50


def test_arrangement_route_equals_curve_route_for_all_weak_data():
    from specpairs.cli import arrangement_spec, weak_multisets

    for d in range(2, 8):
        for mults in weak_multisets(d):
            spec = arrangement_spec(d, mults)
            assert boundary_pairs_arrangement(d, mults) == boundary_pairs_curve(spec)


def test_qhm_worked_examples():
    smooth_cubic = boundary_pairs_qhm(SMOOTH_CUBIC)
    assert smooth_cubic[2] == SpectralPairTable({(1, 1, 0): 2})
    assert smooth_cubic[1] == SpectralPairTable({(0, 1, 0): 1, (1, 0, 0): 1})
    assert smooth_cubic[0] == SpectralPairTable({(0, 0, 0): 2})

    conic = boundary_pairs_qhm(SMOOTH_CONIC)
    assert conic[2] == SpectralPairTable({(1, 1, 0): 1})
    assert conic[1].is_empty
    assert conic[0] == SpectralPairTable({(0, 0, 0): 1})

    surface = boundary_pairs_qhm(
        HypersurfaceSpec(n=2, d=3, components=1, rational_homology_manifold=True)
    )
    assert surface[3] == SpectralPairTable({(1, 2, 0): 1, (2, 1, 0): 1})
    assert surface[1] == SpectralPairTable({(0, 1, 0): 1, (1, 0, 0): 1})
    assert surface[2] == SpectralPairTable({(1, 1, 0): 6})


def test_qhm_flattened_total_mass_on_smooth_hypersurfaces():
    for n in (1, 2, 3):
        for d in range(2, 6):
            spec = HypersurfaceSpec(
                n=n, d=d, components=1, rational_homology_manifold=True
            )
            inv = compute_boundary_invariants(spec)
            assert inv.pairs_full is not None
            assert inv.pairs_full.total_dim() == 2 * (d - 1) ** (n + 1)


def test_qhm_nodal_cubic_surface():
    node = brieskorn_pham_explicit((2, 2, 2))
    spec = HypersurfaceSpec(
        n=2, d=3, components=1, singularities=((node, 1),),
        rational_homology_manifold=True,
    )
    weighted = boundary_pairs_qhm(spec)
    assert weighted[2] == SpectralPairTable({(1, 1, 0): 5})
    inv = compute_boundary_invariants(spec)
    assert inv.pairs_full.total_dim() == 16
    assert inv.pairs_full.level_dual(2) == inv.pairs_full


def test_qhm_curve_routes_agree():
    for spec in (SMOOTH_CONIC, SMOOTH_CUBIC, CUSPIDAL_CUBIC):
        weighted = boundary_pairs_qhm(spec)
        merged = flatten_weights(weighted) + boundary_pairs_nonunipotent(spec)
        assert merged == boundary_pairs_curve(spec)


def test_qhm_requires_flag():
    with pytest.raises(ValueError):
        boundary_pairs_qhm(THREE_GENERIC_LINES)


def test_qhm_rejects_oversized_local_hodge_data():
    from specpairs import NegativeCount

    fat = Explicit(
        milnor=2,
        branches=1,
        alexander=phi({6: 1}),
        pairs=SpectralPairTable(
            {(0, 1, Fraction(5, 6)): 1, (1, 0, Fraction(1, 6)): 1}
        ),
        grf_dims=((0, 2),),  # exceeds the genus of a smooth cubic
    )
    spec = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((fat, 1),),
        rational_homology_manifold=True,
    )
    with pytest.raises(NegativeCount):
        boundary_pairs_qhm(spec)


def test_curve_route_with_non_semisimple_explicit_germ():
    # a germ whose non-unipotent part carries size-2 Jordan blocks: entries of
    # type (0,0) and (1,1) at alpha > 0, which no built-in model produces
    germ = Explicit(
        milnor=4,
        branches=1,
        alexander=phi({3: 2}),
        pairs=SpectralPairTable(
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
    assert full.get((0, 0, Fraction(1, 3))) == 1
    assert full.get((1, 1, Fraction(1, 3))) == 1
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
    lines = projective_curve_hodge(THREE_GENERIC_LINES).projective_map()
    assert lines[(1, 0, 0)] == 1
    assert lines[(2, 1, 1)] == 3
    smooth = projective_curve_hodge(SMOOTH_CUBIC).projective_map()
    assert smooth[(1, 0, 1)] == 1 and smooth[(1, 1, 0)] == 1
    cusp = projective_curve_hodge(CUSPIDAL_CUBIC).compact_support_map()
    assert cusp[(1, 0, 0)] == 2


def test_smooth_primitive_middle_against_known_hodge_numbers():
    # plane curves: genus of the smooth degree-d curve
    assert [smooth_primitive_middle(1, d, 0) for d in (2, 3, 4, 5)] == [0, 1, 3, 6]
    # surfaces: quadric 0,1,0; cubic 0,6,0; quartic (K3) 1,19,1
    assert [smooth_primitive_middle(2, 2, p) for p in (0, 1, 2)] == [0, 1, 0]
    assert [smooth_primitive_middle(2, 3, p) for p in (0, 1, 2)] == [0, 6, 0]
    assert [smooth_primitive_middle(2, 4, p) for p in (0, 1, 2)] == [1, 19, 1]


def test_projective_space_hodge():
    assert projective_space_hodge(3, 2, 1, 1) == 1
    assert projective_space_hodge(3, 2, 0, 2) == 0
    assert projective_space_hodge(3, 3, 1, 1) == 0
    assert projective_space_hodge(2, 6, 3, 3) == 0
    # primitive + projective space = full middle cohomology of the cubic surface
    assert smooth_primitive_middle(2, 3, 1) + projective_space_hodge(3, 2, 1, 1) == 7


def test_full_invariants_none_outside_exact_cases():
    surface = HypersurfaceSpec(n=2, d=3, components=1)
    inv = compute_boundary_invariants(surface)
    assert inv.pairs_full is None and inv.pairs_unipotent is None
    assert inv.weight_resolved is None
    assert inv.delta_m.degree == 16


def test_boundary_alexander_negative_exponent():
    from specpairs import NegativeExponent

    # mu = -4 with a unibranch germ pushes the combined t - 1 exponent below zero
    overloaded = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((Brieskorn(2, 9), 1),)
    )
    with pytest.raises(NegativeExponent):
        boundary_alexander(overloaded)


def test_curve_table_parity_violation():
    from specpairs import Explicit, ParityViolation

    odd_germ = Explicit(
        milnor=1,
        branches=1,
        alexander=CyclotomicFactorization(factors={2: 1}),
        pairs=SpectralPairTable({(0, 1, Fraction(1, 2)): 1}),
    )
    spec = HypersurfaceSpec(n=1, d=3, components=1, singularities=((odd_germ, 1),))
    with pytest.raises(ParityViolation):
        boundary_pairs_curve(spec)


def test_boundary_alexander_expansion_refactors():
    # all zeros are roots of unity, so expanding and refactoring reproduces
    # the factorization on internally generated polynomials
    from specpairs import factor_roots_of_unity

    rng = random.Random(11)
    specs = [THREE_GENERIC_LINES, THREE_CONCURRENT_LINES, CUSPIDAL_CUBIC]
    specs += [random_spec(rng, 1, d_max=6) for _ in range(5)]
    for spec in specs:
        delta_m = boundary_alexander(spec)
        assert factor_roots_of_unity(delta_m.expand()) == delta_m
