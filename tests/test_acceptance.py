"""Acceptance suite: one test per criterion, exact assertions, stated time
budgets enforced.  Each test prints a single pass line on success."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from helpers import random_curve_spec, random_spec, weak_multisets

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    HypersurfaceSpec,
    Ordinary,
    SpectralPairTable,
    boundary_alexander,
    boundary_pairs_curve,
    boundary_pairs_nonunipotent,
    boundary_pairs_qhm,
    error_term,
    flatten_weights,
    milnor_dim,
    milnor_dim_bruteforce,
    spectral_bound_arrangement,
    spectral_bound_curve,
    steenbrink_infinity,
)
from specpairs.milnor import top_weight


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:>2} ({name}): PASS")


def test_criterion_01_steenbrink_closed_form_for_curves():
    start = time.perf_counter()
    for d in range(2, 13):
        expected: dict[tuple[int, int, Fraction], int] = {(1, 1, Fraction(0)): d - 1}
        for j in range(1, d):
            if j - 1:
                expected[(0, 1, Fraction(j, d))] = j - 1
                expected[(1, 0, Fraction(d - j, d))] = j - 1
        assert steenbrink_infinity(1, d) == SpectralPairTable(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "curve table at infinity, closed form")


def test_criterion_02_milnor_algebra_oracle_equivalence():
    start = time.perf_counter()
    for n in range(0, 4):
        for d in range(2, 8):
            top = top_weight(n, d)
            total = 0
            for m in range(-1, top + 2):
                closed = milnor_dim(n, d, m)
                assert closed == milnor_dim_bruteforce(n, d, m)
                total += closed
            assert total == (d - 1) ** (n + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, "Milnor algebra dimensions vs brute force")


def test_criterion_03_degree_identity_on_random_specs():
    rng = random.Random(1203)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        spec = random_spec(rng, n, d_max=8)
        delta_m = boundary_alexander(spec)
        assert delta_m.degree == 2 * (spec.d - 1) ** (n + 1)
    _report(3, "boundary Alexander degree identity, 200 random specs")


def test_criterion_04_xi_integrality():
    for n in range(0, 7):
        for d in range(2, 13):
            assert ((d - 1) ** (n + 1) + (-1) ** n) % d == 0
    _report(4, "xi integrality")


def test_criterion_05_worked_examples():
    lines = HypersurfaceSpec(
        n=1, d=3, components=3, singularities=((Ordinary(2), 3),),
        line_arrangement=True,
    )
    assert boundary_alexander(lines) == CyclotomicFactorization(factors={1: 6, 3: 1})
    assert boundary_pairs_curve(lines) == SpectralPairTable(
        {
            (0, 0, 0): 3,
            (1, 1, 0): 3,
            (0, 1, Fraction(2, 3)): 1,
            (1, 0, Fraction(1, 3)): 1,
        }
    )

    concurrent = HypersurfaceSpec(
        n=1, d=3, components=3, singularities=((Ordinary(3), 1),),
        line_arrangement=True,
    )
    assert boundary_alexander(concurrent) == CyclotomicFactorization(
        factors={1: 4, 3: 2}
    )
    assert boundary_pairs_curve(concurrent) == SpectralPairTable(
        {
            (0, 0, 0): 2,
            (1, 1, 0): 2,
            (0, 1, Fraction(2, 3)): 2,
            (1, 0, Fraction(1, 3)): 2,
        }
    )

    cusp = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((Brieskorn(2, 3), 1),)
    )
    cusp_delta = boundary_alexander(cusp)
    assert cusp_delta == CyclotomicFactorization(factors={1: 4, 3: 1, 6: 1})
    assert cusp_delta.degree == 8
    assert boundary_pairs_curve(cusp).total_dim() == 8

    conic = HypersurfaceSpec(n=1, d=2, components=1)
    assert boundary_alexander(conic) == CyclotomicFactorization(factors={1: 2})
    _report(5, "worked examples")


def test_criterion_06_two_path_agreement_on_random_curves():
    rng = random.Random(60606)
    for _ in range(500):
        spec = random_curve_spec(rng, d_max=8)
        full = boundary_pairs_curve(spec)
        assert full.nonunipotent() == boundary_pairs_nonunipotent(spec)
        assert full.total_dim() == boundary_alexander(spec).degree
    _report(6, "two-path agreement, 500 random curve specs")


def test_criterion_07_weight_route_matches_curve_route_for_smooth_curves():
    for d in range(2, 7):
        spec = HypersurfaceSpec(
            n=1, d=d, components=1, rational_homology_manifold=True
        )
        weighted = boundary_pairs_qhm(spec)
        merged = flatten_weights(weighted) + boundary_pairs_nonunipotent(spec)
        assert merged == boundary_pairs_curve(spec)
    _report(7, "weight-resolved route vs curve route, smooth d = 2..6")


def test_criterion_08_symmetry_suite():
    rng = random.Random(888)
    for _ in range(150):
        spec = random_curve_spec(rng, d_max=8)
        table = boundary_pairs_curve(spec)
        assert table.conjugate() == table
        assert table.level_dual(1) == table
    for n in range(0, 4):
        for d in range(2, 10):
            table = steenbrink_infinity(n, d)
            assert table.conjugate() == table
    for m in range(2, 13):
        table = Ordinary(m).pairs
        assert table.conjugate() == table
    for a in range(2, 13):
        for b in range(a, 13):
            table = Brieskorn(a, b).pairs
            assert table.conjugate() == table
    _report(8, "conjugation and level duality fix every emitted table")


def test_criterion_09_error_term_suite():
    concurrent = HypersurfaceSpec(
        n=1, d=3, components=3, singularities=((Ordinary(3), 1),),
        line_arrangement=True,
    )
    assert error_term(
        concurrent, CyclotomicFactorization(factors={1: 2, 3: 1})
    ) == CyclotomicFactorization()

    lines = HypersurfaceSpec(
        n=1, d=3, components=3, singularities=((Ordinary(2), 3),),
        line_arrangement=True,
    )
    assert error_term(
        lines, CyclotomicFactorization(factors={1: 2})
    ) == CyclotomicFactorization(factors={1: 2, 3: 1})

    rng = random.Random(909)
    for _ in range(100):
        spec = random_spec(rng, rng.choice((1, 2, 3)), d_max=6)
        delta_m = boundary_alexander(spec)
        delta_u = CyclotomicFactorization(
            factors={
                k: rng.randint(0, m // 2) for k, m in delta_m.factors.items()
            }
        )
        assert error_term(spec, delta_u).degree % 2 == 0
    _report(9, "error term values and even degree")


def test_criterion_10_vanishing_bounds():
    pool = [
        (d, mults)
        for d in range(4, 10)
        for mults in weak_multisets(d)
        if max(mults) < d
    ]
    rng = random.Random(1010)
    picks = [rng.choice(pool) for _ in range(100)]
    for d, mults in picks:
        bounds = spectral_bound_arrangement(d, mults)
        for j in range(1, d):
            if gcd(j, d) == 1:
                # (0, 1, j) is the angle j/d
                assert bounds.bound_at((0, 1, j)) == 0
                assert bounds.bound_at((1, 0, d - j)) == 0
    for d in range(2, 13):
        curve = spectral_bound_curve(HypersurfaceSpec(n=1, d=d, components=1))
        assert curve.bound_at((0, 1, 1)) == 0
    _report(10, "vanishing bounds at coprime angles and at 1/d")


def test_criterion_11_local_consistency():
    for m in range(2, 13):
        assert Ordinary(m).pairs == steenbrink_infinity(1, m)
    germs = [Ordinary(m) for m in range(2, 13)]
    germs += [Brieskorn(a, b) for a in range(2, 13) for b in range(a, 13)]
    for germ in germs:
        assert germ.pairs.unipotent().total_dim() == germ.branches - 1
        assert germ.alexander.degree == germ.milnor
    _report(11, "local pairs, masses and Alexander degrees")
