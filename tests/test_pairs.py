"""Spectral-pair table algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import SpectralPairTable


def table(entries):
    return SpectralPairTable(entries)


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
    assert table({(0, 0, 0): 0}).is_empty
    with pytest.raises(ValueError):
        table({(0, 0, 0): -1})


def test_alpha_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        table({(0, 0, Fraction(3, 2)): 1})
    with pytest.raises(ValueError):
        table({(0, 0, 1): 1})


def test_restrictions_partition_the_table():
    t = table({(0, 1, Fraction(1, 2)): 2, (1, 1, 0): 3})
    assert t.nonunipotent() + t.unipotent() == t
    assert t.nonunipotent().total_dim() == 2
    assert t.unipotent().total_dim() == 3


def test_marginals():
    t = table({(0, 1, Fraction(1, 2)): 2, (1, 0, Fraction(1, 2)): 1, (1, 1, 0): 3})
    assert t.alpha_marginal() == {Fraction(1, 2): 3, Fraction(0): 3}
    assert t.hodge_filtration_marginal() == {0: 2, 1: 4}


def test_scalar_multiple():
    t = table({(0, 1, Fraction(1, 3)): 2})
    assert (t * 3).get((0, 1, Fraction(1, 3))) == 6
    assert (t * 0).is_empty


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
    SpectralPairTable
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
