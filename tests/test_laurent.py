"""Cyclotomic factorization arithmetic, checked against an independent
expansion oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_cyclotomic, oracle_expand, t_power_minus_one

from specpairs import (
    CyclotomicFactorization,
    NotDivisible,
    euler_phi,
)
from specpairs.laurent import divisors, parse_fraction


def _multiply(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _span(p: dict) -> int:
    return max(p) - min(p)


def test_cyclotomic_small_table():
    assert oracle_cyclotomic(1) == (-1, 1)
    assert oracle_cyclotomic(2) == (1, 1)
    assert oracle_cyclotomic(3) == (1, 1, 1)
    assert oracle_cyclotomic(4) == (1, 0, 1)
    assert oracle_cyclotomic(6) == (1, -1, 1)
    assert oracle_cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    for k in range(1, 40):
        assert len(oracle_cyclotomic(k)) - 1 == euler_phi(k)


def test_cyclotomic_palindromic_from_order_two():
    for k in range(2, 30):
        poly = oracle_cyclotomic(k)
        assert poly[::-1] == poly


def test_product_of_cyclotomics_over_divisors_is_t_d_minus_one():
    for d in (1, 2, 3, 6, 12):
        product = CyclotomicFactorization(dict.fromkeys(divisors(d), 1))
        assert oracle_expand(product) == {d: 1, 0: -1}
        assert product == t_power_minus_one(d)


def test_euler_phi_values():
    assert [euler_phi(k) for k in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_expand_examples():
    assert oracle_expand(CyclotomicFactorization(factors={1: 1})) == {1: 1, 0: -1}


def test_concrete_factorization_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        CyclotomicFactorization(factors={1: -1})


def test_divide_and_divides():
    a = CyclotomicFactorization(factors={1: 4, 3: 2})
    b = CyclotomicFactorization(factors={1: 2, 3: 1})
    assert b * b == a
    assert a.divide(b) == b
    assert b.gcd(a) == b  # b divides a
    assert a.gcd(b) == b != a  # a does not divide b
    with pytest.raises(NotDivisible):
        b.divide(a)


def test_degree_is_multiplicity_weighted_totient():
    f = CyclotomicFactorization(factors={1: 6, 3: 1, 12: 2})
    assert f.degree == 6 * 1 + 2 + 2 * 4
    assert _span(oracle_expand(f)) == f.degree


def test_serialization_round_trip():
    # a document's unit and power of t are read, checked and dropped
    doc = {"unit": "-3/4", "t_power": -2, "factors": [[6, 1], [1, 2]]}
    f = CyclotomicFactorization.from_dict(doc)
    assert f == CyclotomicFactorization(factors={1: 2, 6: 1})
    data = f.to_dict()
    assert data == {"unit": "1/1", "t_power": 0, "factors": [[1, 2], [6, 1]]}
    assert CyclotomicFactorization.from_dict(data) == f


def test_division_by_zero_and_bad_orders():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        CyclotomicFactorization.from_dict({"unit": 0, "factors": [[1, 1]]})
    with pytest.raises(ValueError):
        CyclotomicFactorization(factors={0: 1})
    with pytest.raises(ValueError):
        CyclotomicFactorization() ** -1
    # the one constructor takes the factors alone, keeps every check and
    # drops zero multiplicities
    with pytest.raises(ValueError):
        CyclotomicFactorization({1: -1})
    assert CyclotomicFactorization({1: 1, 2: 0}) == (
        CyclotomicFactorization(factors={1: 1})
    )
    with pytest.raises(TypeError):
        CyclotomicFactorization({1: 1}, 2)
    assert CyclotomicFactorization.__slots__ == ("_factors",)


small_factorizations = st.builds(
    CyclotomicFactorization,
    factors=st.dictionaries(
        st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_factorizations, small_factorizations)
def test_expand_is_multiplicative(f, g):
    assert oracle_expand(f * g) == _multiply(oracle_expand(f), oracle_expand(g))


@settings(max_examples=40, deadline=None)
@given(small_factorizations)
def test_degree_matches_expansion_span(f):
    assert _span(oracle_expand(f)) == f.degree


@pytest.mark.parametrize("value, pair", [
    (3, (3, 1)), (-2, (-2, 1)), ("5/6", (5, 6)), ("2/4", (1, 2)),
    ("-3/4", (-3, 4)), ("0/7", (0, 1)), ("12/3", (4, 1)),
])
def test_a_rational_is_an_integer_or_a_over_b_in_lowest_terms(value, pair):
    assert parse_fraction(value) == pair


@pytest.mark.parametrize("value", [
    "0.5", "1e-1", " 1/2 ", "+1/3", "1_0/30", "3", "\u0665/\u0666", "1/2\n",
    "1/0", "1/-2", "", True, 0.5, None, [1, 2],
])
def test_no_other_form_is_read_as_a_rational(value):
    with pytest.raises(ValueError, match="as an exact rational"):
        parse_fraction(value)


ASCII_DIGITS = "0123456789"


def _readme_rational(text: str):
    """README's rule for the text of a unit or an angle, written without
    a regex: "a/b", where a is ASCII digits after an optional "-" and b is
    ASCII digits and not zero; the value (a, b) as ints, or None."""
    a, slash, b = text.partition("/")
    if a.startswith("-"):
        a = a[1:]
        sign = -1
    else:
        sign = 1
    if not slash or not a or not b:
        return None
    if any(c not in ASCII_DIGITS for c in a + b):
        return None
    value = sign * int(a), int(b)
    return None if value[1] == 0 else value


def _draw(rng: random.Random, alphabet: str) -> str:
    """A string over the alphabet: half the time any string of up to 7
    characters, else "a/b" with an optional "-" and up to two edits."""
    if rng.random() < 0.5:
        return "".join(rng.choices(alphabet, k=rng.randint(0, 7)))
    digits = lambda: "".join(rng.choices(ASCII_DIGITS, k=rng.randint(1, 4)))
    text = rng.choice(["", "-"]) + digits() + "/" + digits()
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(["", rng.choice(alphabet)]) + text[i + 1:]
    return text


def test_angle_grammar_accepts_exactly_the_readme_rule():
    # digits, the signs and separators a number may carry elsewhere, and
    # one non-ASCII digit (ARABIC-INDIC DIGIT THREE), which int() reads
    alphabet = ASCII_DIGITS + "/-+ .e_\u0663"
    rng = random.Random(20261022)
    accepted = rejected = 0
    for _ in range(20_000):
        text = _draw(rng, alphabet)
        want = _readme_rational(text)
        if want is None:
            with pytest.raises(ValueError, match="as an exact rational"):
                parse_fraction(text)
            rejected += 1
            continue
        value = Fraction(*want)
        assert parse_fraction(text) == (value.numerator, value.denominator)
        accepted += 1
    assert accepted > 5_000 and rejected > 5_000
