"""Laurent polynomials, cyclotomic polynomials and factorization arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    CyclotomicFactorization,
    LaurentPoly,
    NegativeMultiplicity,
    NotCyclotomicProduct,
    NotDivisible,
    cyclotomic,
    euler_phi,
    factor_roots_of_unity,
    t_power_minus_one,
)

T = LaurentPoly.monomial(1)


def test_cyclotomic_small_table():
    assert cyclotomic(1) == T - 1
    assert cyclotomic(2) == T + 1
    assert cyclotomic(3) == T**2 + T + 1
    assert cyclotomic(4) == T**2 + 1
    assert cyclotomic(6) == T**2 - T + 1
    assert cyclotomic(12) == T**4 - T**2 + 1


def test_cyclotomic_degree_is_totient():
    for k in range(1, 40):
        assert cyclotomic(k).degree == euler_phi(k)


def test_cyclotomic_palindromic_from_order_two():
    for k in range(2, 30):
        poly = cyclotomic(k)
        flipped = poly.reciprocal_variable().shifted(poly.degree)
        assert flipped == poly


def test_product_of_cyclotomics_over_divisors_is_t_d_minus_one():
    for d in (1, 2, 3, 6, 12):
        assert t_power_minus_one(d).expand() == T**d - 1


def test_euler_phi_values():
    assert [euler_phi(k) for k in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_laurent_negative_exponents_and_arithmetic():
    p = LaurentPoly({-2: 1, 0: -3, 1: Fraction(1, 2)})
    assert p.lowest_exponent == -2
    assert p.degree == 1
    assert p.coefficient(0) == -3
    assert (p * T**2).lowest_exponent == 0
    assert p - p == LaurentPoly.zero()
    assert (p * 0).is_zero


def test_laurent_division_exact_and_failing():
    product = (T - 1) ** 3 * (T**2 + T + 1)
    assert product.divide_exact(T - 1) == (T - 1) ** 2 * (T**2 + T + 1)
    assert (T**2 + 2).divide_exact(T - 1) is None
    shifted = product.shifted(-4)
    quotient = shifted.divide_exact((T - 1).shifted(2))
    assert quotient is not None and quotient * (T - 1).shifted(2) == shifted


def test_factor_t_cubed_minus_one():
    got = factor_roots_of_unity(T**3 - 1)
    assert got == CyclotomicFactorization(factors={1: 1, 3: 1})


def test_factor_worked_product():
    poly = (T - 1) ** 6 * (T**2 + T + 1)
    assert factor_roots_of_unity(poly) == CyclotomicFactorization(factors={1: 6, 3: 1})


def test_factor_rejects_non_cyclotomic():
    with pytest.raises(NotCyclotomicProduct):
        factor_roots_of_unity(T**2 + 2)
    with pytest.raises(NotCyclotomicProduct):
        factor_roots_of_unity(2 * T**2 - 2 * T - 4)  # roots 2 and -1


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_roots_of_unity(LaurentPoly.zero())


def test_expand_examples():
    assert CyclotomicFactorization(factors={1: 1}).expand() == T - 1
    assert CyclotomicFactorization(factors={1: 1, 3: 1}).expand() == T**3 - 1
    assert CyclotomicFactorization(unit=1, t_power=1).expand() == T


def test_expand_negative_multiplicity_errors():
    bound = CyclotomicFactorization(factors={1: -1, 2: 1}, formal=True)
    with pytest.raises(NegativeMultiplicity):
        bound.expand()


def test_concrete_factorization_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        CyclotomicFactorization(factors={1: -1})


def test_divide_and_divides():
    a = CyclotomicFactorization(factors={1: 4, 3: 2})
    b = CyclotomicFactorization(factors={1: 2, 3: 1})
    assert b * b == a
    assert a.divide(b) == b
    assert b.divides(a)
    assert not a.divides(b)
    with pytest.raises(NotDivisible):
        b.divide(a)


def test_degree_is_multiplicity_weighted_totient():
    f = CyclotomicFactorization(factors={1: 6, 3: 1, 12: 2})
    assert f.degree == 6 * 1 + 2 + 2 * 4
    assert f.expand().span == f.degree


def test_reciprocal_variable_matches_expansion():
    f = CyclotomicFactorization(unit=Fraction(3, 2), t_power=2, factors={1: 3, 4: 1})
    assert f.reciprocal_variable().expand() == f.expand().reciprocal_variable()
    # factors are fixed by the involution; only unit and t-power move
    assert f.reciprocal_variable().factors == f.factors


def test_canonical_form():
    f = CyclotomicFactorization(unit=-2, t_power=5, factors={1: 1})
    assert f.canonical() == CyclotomicFactorization(unit=2, t_power=0, factors={1: 1})


def test_serialization_round_trip():
    f = CyclotomicFactorization(unit=Fraction(-3, 4), t_power=-2, factors={1: 2, 6: 1})
    data = f.to_dict()
    assert data["unit"] == "-3/4"
    assert data["factors"] == [[1, 2], [6, 1]]
    assert CyclotomicFactorization.from_dict(data) == f
    formal = CyclotomicFactorization(factors={1: -1}, formal=True)
    assert CyclotomicFactorization.from_dict(formal.to_dict()) == formal


def test_division_by_zero_and_bad_orders():
    with pytest.raises(ZeroDivisionError):
        (T - 1).divide_exact(LaurentPoly.zero())
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        t_power_minus_one(0)
    with pytest.raises(ValueError):
        CyclotomicFactorization(unit=0)
    with pytest.raises(ValueError):
        CyclotomicFactorization(factors={0: 1})
    with pytest.raises(ValueError):
        CyclotomicFactorization() ** -1


small_factorizations = st.builds(
    CyclotomicFactorization,
    unit=st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    ).filter(bool),
    t_power=st.integers(min_value=-3, max_value=3),
    factors=st.dictionaries(
        st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_factorizations)
def test_factor_expand_round_trip(f):
    assert factor_roots_of_unity(f.expand()) == CyclotomicFactorization(
        f.unit, f.t_power, f.factors
    )


@settings(max_examples=60, deadline=None)
@given(small_factorizations, small_factorizations)
def test_expand_is_multiplicative(f, g):
    assert (f * g).expand() == f.expand() * g.expand()


@settings(max_examples=40, deadline=None)
@given(small_factorizations)
def test_degree_matches_expansion_span(f):
    poly = f.expand()
    assert poly.span == f.degree
