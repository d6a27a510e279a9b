"""Milnor algebra graded dimensions and the spectral-pair table at infinity."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from helpers import (
    brieskorn_pham_explicit,
    milnor_dim_closed_form,
    oracle_local_pairs,
    pair_table,
    table_at_infinity_from_dims,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    EnumerationTooLarge,
    milnor_dim,
    milnor_dim_bruteforce,
    steenbrink_infinity,
)
from specpairs.milnor import _pairs_at_level, brieskorn_pham_spectrum


def test_milnor_dim_examples():
    assert milnor_dim(1, 3, 1) == 2  # x, y
    assert milnor_dim(1, 3, 5) == 0  # above the top degree 2
    assert milnor_dim(2, 3, 3) == 1  # xyz only
    assert milnor_dim(1, 3, -1) == 0


def test_bruteforce_examples():
    assert milnor_dim_bruteforce(1, 3, 1) == 2
    assert milnor_dim_bruteforce(3, 4, 0) == 1
    assert milnor_dim_bruteforce(2, 3, 4) == 0


def test_bruteforce_guard():
    with pytest.raises(EnumerationTooLarge):
        milnor_dim_bruteforce(7, 30, 5)
    # d = 2 has one tuple, but of 10^9 + 1 exponents
    with pytest.raises(EnumerationTooLarge):
        milnor_dim_bruteforce(10**9, 2, 0)


def test_bruteforce_refuses_a_tuple_too_long_to_hold():
    # d = 2 passes the step guard up to n + 1 = 10^7 steps, but the
    # enumeration and the engine each hold a tuple of n + 1 exponents
    with pytest.raises(EnumerationTooLarge, match=r"n\+1 = 1000001 exponents"):
        milnor_dim_bruteforce(10**6, 2, 0)
    assert milnor_dim_bruteforce(10**5 - 1, 2, 0) == 1


def test_milnor_dim_of_a_huge_n_sums_only_its_nonzero_terms():
    # the closed-form oracle; exponents at most 1: choose the 5 that are 1
    assert milnor_dim_closed_form(10**9, 3, 5) == comb(10**9 + 1, 5)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        milnor_dim(-1, 3, 0)
    with pytest.raises(ValueError):
        milnor_dim(1, 1, 0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=-2, max_value=18),
)
def test_closed_form_matches_bruteforce(n, d, m):
    brute = milnor_dim_bruteforce(n, d, m)
    assert milnor_dim(n, d, m) == milnor_dim_closed_form(n, d, m) == brute


def test_engine_matches_the_closed_form_on_every_small_case():
    # milnor_dim reads the engine's Fermat spectrum; the inclusion-exclusion
    # oracle shares no code with it
    cases = [
        (n, d, m)
        for n in range(6)
        for d in range(2, 9)
        for m in range(-2, (n + 1) * (d - 2) + 3)
    ]
    mismatched = [c for c in cases if milnor_dim(*c) != milnor_dim_closed_form(*c)]
    assert len(cases) == 651 and mismatched == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=7))
def test_complement_symmetry_and_total_mass(n, d):
    top = (n + 1) * (d - 2)
    assert all(
        milnor_dim(n, d, m) == milnor_dim(n, d, top - m) for m in range(-1, top + 2)
    )
    assert sum(milnor_dim(n, d, m) for m in range(top + 1)) == (d - 1) ** (n + 1)


def test_steenbrink_table_for_plane_cubic():
    assert steenbrink_infinity(1, 3) == pair_table(
        {(0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1, (1, 1, 0): 2}
    )


def test_steenbrink_table_for_conic():
    assert steenbrink_infinity(1, 2) == pair_table({(1, 1, 0): 1})


def test_steenbrink_table_for_cubic_surface():
    assert steenbrink_infinity(2, 3) == pair_table(
        {
            (1, 1, Fraction(1, 3)): 3,
            (1, 1, Fraction(2, 3)): 3,
            (1, 2, 0): 1,
            (2, 1, 0): 1,
        }
    )


def test_steenbrink_table_for_quadric_surface():
    assert steenbrink_infinity(2, 2) == pair_table(
        {(1, 1, Fraction(1, 2)): 1}
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=9))
def test_steenbrink_mass_and_symmetry(n, d):
    table = steenbrink_infinity(n, d)
    assert table.total_dim() == (d - 1) ** (n + 1)
    assert table.conjugate() == table


def _generating_function_dims(n, d):
    """Coefficients of (1 + x + ... + x^(d-2))^(n+1), an oracle independent of
    both the inclusion-exclusion formula and the tuple enumeration."""
    coeffs = [1]
    block = [1] * (d - 1)
    for _ in range(n + 1):
        out = [0] * (len(coeffs) + len(block) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def test_closed_form_matches_generating_function_beyond_enumeration_range():
    for n, d in ((4, 9), (5, 6), (6, 12), (2, 15)):
        coeffs = _generating_function_dims(n, d)
        assert len(coeffs) == (n + 1) * (d - 2) + 1
        for m, dim in enumerate(coeffs):
            assert milnor_dim(n, d, m) == milnor_dim_closed_form(n, d, m) == dim


def test_table_at_infinity_equals_its_entries_from_milnor_dim():
    for n in range(6):
        for d in range(2, 31):
            expected = table_at_infinity_from_dims(
                n, d, lambda m: milnor_dim_closed_form(n, d, m)
            )
            assert steenbrink_infinity(n, d) == expected, (n, d)
    # the enumeration runs once per entry, so only small tuple counts
    for n in range(6):
        for d in range(2, 31):
            if (d - 1) ** (n + 1) <= 2000:
                expected = table_at_infinity_from_dims(
                    n, d, lambda m: milnor_dim_bruteforce(n, d, m)
                )
                assert steenbrink_infinity(n, d) == expected, (n, d)
    # exponents 0 or 1: the degree-m piece has C(n+1, m) monomials
    n = 841
    expected = table_at_infinity_from_dims(n, 3, lambda m: comb(n + 1, m) if m >= 0 else 0)
    assert steenbrink_infinity(n, 3) == expected


def test_engine_matches_fraction_enumeration_at_unequal_exponents():
    # no built-in germ has more than two exponents or, for an ordinary
    # point, unequal ones; the helper enumerates i_0/a_0 + ... + i_n/a_n
    # with Fractions
    tuples = [e for size in (2, 3) for e in product(range(2, 7), repeat=size)]
    tuples += product(range(2, 6), repeat=4)
    mismatched = [
        e for e in tuples
        if _pairs_at_level(len(e) - 1, *brieskorn_pham_spectrum(e))
        != brieskorn_pham_explicit(e).pairs
    ]
    assert len(tuples) == 406 and mismatched == []


def test_the_engine_gives_its_multiplicities_as_one_list():
    # (den, shift, coeffs): coeffs[i] counts the value (shift + i)/den
    assert brieskorn_pham_spectrum((3, 3)) == (3, 2, [1, 2, 1])
    assert brieskorn_pham_spectrum((2, 3)) == (6, 5, [1, 0, 1])
    assert brieskorn_pham_spectrum((2, 2, 2, 2)) == (2, 4, [1])
    assert brieskorn_pham_spectrum((6, 3)) == (6, 3, [1, 1, 2, 2, 2, 1, 1])


def test_slices_start_above_one_and_end_at_integers():
    def pairs(*exponents):
        return _pairs_at_level(len(exponents) - 1, *brieskorn_pham_spectrum(exponents))

    # x^2 + y^2 + z^2 + w^2 has the single value 2, at level 3: (2, 2, 0)
    assert pairs(2, 2, 2, 2) == pair_table({(2, 2, Fraction(0)): 1})
    # x^3 + y^3 + z^3: 1 and 2 once, 4/3 and 5/3 three times each
    assert pairs(3, 3, 3) == pair_table({
        (1, 2, Fraction(0)): 1, (1, 1, Fraction(1, 3)): 3,
        (1, 1, Fraction(2, 3)): 3, (2, 1, Fraction(0)): 1,
    })
    # the integer 1 ends the slice [0, 1) and opens [1, 2)
    assert pairs(4, 4) == pair_table({
        (0, 1, Fraction(1, 2)): 1, (0, 1, Fraction(3, 4)): 2, (1, 1, Fraction(0)): 3,
        (1, 0, Fraction(1, 4)): 2, (1, 0, Fraction(1, 2)): 1,
    })
    assert pairs(6, 3) == pair_table({
        (0, 1, Fraction(1, 2)): 1, (0, 1, Fraction(2, 3)): 1,
        (0, 1, Fraction(5, 6)): 2, (1, 1, Fraction(0)): 2,
        (1, 0, Fraction(1, 6)): 2, (1, 0, Fraction(1, 3)): 1, (1, 0, Fraction(1, 2)): 1,
    })


@pytest.mark.parametrize("a, b", [(23, 29), (31, 32), (17, 40), (30, 45)])
def test_large_germs_match_the_oracles(a, b):
    # Milnor numbers in the hundreds; neither oracle shares code with the engine
    engine = _pairs_at_level(1, *brieskorn_pham_spectrum((a, b)))
    assert engine == pair_table(oracle_local_pairs(a, b))
    assert engine == brieskorn_pham_explicit((a, b)).pairs
    assert engine.total_dim() == (a - 1) * (b - 1)


@pytest.mark.parametrize("n, d", [(0, 2), (0, 5), (1, 2), (1, 3), (2, 4), (3, 5)])
def test_milnor_dim_at_the_ends_of_its_range(n, d):
    top = (n + 1) * (d - 2)
    for m in (-1, 0, top, top + 1):
        assert milnor_dim(n, d, m) == milnor_dim_closed_form(n, d, m), m
    assert [milnor_dim(n, d, m) for m in (-1, 0, top, top + 1)] == [0, 1, 1, 0]
