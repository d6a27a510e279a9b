"""Spectral-pair table algebra."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from helpers import oracle_table_sum, pair_table, table_entries
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import SpectralPairTable
from specpairs.pairs import table_sum


def table(entries):
    return pair_table(entries)


def test_conjugate_examples():
    assert table({(0, 1, Fraction(2, 3)): 1}).conjugate() == table(
        {(1, 0, Fraction(1, 3)): 1}
    )
    fixed = table({(1, 1, 0): 2})
    assert fixed.conjugate() == fixed
    assert table({}).conjugate() == table({})


def test_level_dual_examples():
    assert table({(0, 0, 0): 3}).level_dual(1) == table({(1, 1, 0): 3})
    assert table({(0, 1, Fraction(5, 6)): 1}).level_dual(1) == table(
        {(1, 0, Fraction(1, 6)): 1}
    )
    assert table({(1, 1, Fraction(1, 3)): 3}).level_dual(2) == table(
        {(1, 1, Fraction(2, 3)): 3}
    )


def test_add_and_total_dim():
    assert table({(1, 1, 0): 1}) + table({(1, 1, 0): 1}) == table({(1, 1, 0): 2})
    steenbrink_1_3 = table(
        {(0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1, (1, 1, 0): 2}
    )
    assert steenbrink_1_3.total_dim() == 4
    assert table({}).total_dim() == 0


def test_zero_entries_dropped_and_negative_rejected():
    assert SpectralPairTable.from_rows([[0, 0, 0, 0]]) == table({})
    negative = r"negative count -1 at \(0, 0, Fraction\(0, 1\)\)"
    with pytest.raises(ValueError, match=negative):
        SpectralPairTable.from_rows([[0, 0, 0, -1]])


def test_alpha_outside_unit_interval_rejected():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\), got 3/2"):
        SpectralPairTable.from_rows([[0, 0, "3/2", 1]])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\), got 1"):
        SpectralPairTable.from_rows([[0, 0, 1, 1]])


def test_restrictions_partition_the_table():
    t = table({(0, 1, Fraction(1, 2)): 2, (1, 1, 0): 3})
    assert t.nonunipotent() + t.unipotent() == t
    assert t.nonunipotent().total_dim() == 2
    assert t.unipotent().total_dim() == 3


def test_marginals():
    t = table({(0, 1, Fraction(1, 2)): 2, (1, 0, Fraction(1, 2)): 1, (1, 1, 0): 3})
    assert t.alpha_marginal() == {(1, 2): 3, (0, 1): 3}
    assert t.hodge_filtration_marginal() == {0: 2, 1: 4}


def test_scalar_multiple():
    t = table({(0, 1, Fraction(1, 3)): 2})
    assert table_sum([(t, 3)]).to_rows() == [[0, 1, "1/3", 6]]


def test_rows_round_trip_sorted():
    t = table({(1, 0, Fraction(1, 3)): 1, (0, 1, Fraction(2, 3)): 1, (1, 1, 0): 2})
    rows = t.to_rows()
    assert rows == [
        [0, 1, "2/3", 1],
        [1, 0, "1/3", 1],
        [1, 1, "0/1", 2],
    ]
    assert SpectralPairTable.from_rows(rows) == t


keys = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
)
tables = st.dictionaries(keys, st.integers(min_value=1, max_value=5), max_size=6).map(
    pair_table
)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_conjugation_is_an_involution(t):
    assert t.conjugate().conjugate() == t


@settings(max_examples=60, deadline=None)
@given(tables, st.integers(min_value=0, max_value=3))
def test_level_duality_is_an_involution(t, n):
    assert t.level_dual(n).level_dual(n) == t


@settings(max_examples=60, deadline=None)
@given(tables, tables)
def test_total_dim_is_additive(a, b):
    assert (a + b).total_dim() == a.total_dim() + b.total_dim()
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(keys, st.integers(min_value=1, max_value=5), max_size=6),
    st.integers(min_value=1, max_value=6),
    tables,
)
def test_integer_keys_over_any_denominator_equal_fraction_keys(entries, extra, other):
    # the constructor takes numerators over a denominator that may be any
    # multiple of the least one; from_rows reads Fraction angles
    den = lcm(*(alpha.denominator for _, _, alpha in entries)) * extra
    by_numerator = SpectralPairTable(
        den,
        {
            (p, q, alpha.numerator * (den // alpha.denominator)): c
            for (p, q, alpha), c in entries.items()
        },
    )
    by_fraction = pair_table(entries)
    assert by_numerator == by_fraction
    assert hash(by_numerator) == hash(by_fraction)
    assert by_numerator.to_rows() == by_fraction.to_rows()
    assert by_numerator + other == by_fraction + other
    assert hash(by_numerator + other) == hash(other + by_fraction)
    assert (by_numerator == other) == (entries == table_entries(other))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(tables, st.integers(min_value=1, max_value=4)), max_size=4),
    st.booleans(),
)
def test_table_sum_equals_the_counter_oracle(terms, nonunipotent):
    total = table_sum(terms, nonunipotent)
    assert table_entries(total) == oracle_table_sum(terms, nonunipotent)
