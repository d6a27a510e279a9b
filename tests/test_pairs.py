"""Spectral-pair table algebra."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from helpers import oracle_table_sum, pair_table, table_entries
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpairs import SpectralPairTable, build_report, parse_spec
from specpairs.bounds import BoundTable
from specpairs.cli import census_rows
from specpairs.pairs import grouped, table_sum

GOLDEN = Path(__file__).parent / "golden"


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
    negative = r"negative count -1 at \(0, 0, 0\)"
    with pytest.raises(ValueError, match=negative):
        SpectralPairTable.from_rows([[0, 0, 0, -1]])
    negative = r"negative count -3 at \(1, 0, 1/2\)"
    with pytest.raises(ValueError, match=negative):
        SpectralPairTable.from_rows([[0, 0, "1/3", 1], [1, 0, "2/4", -3]])


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
    assert t.angle_counts() == (2, {1: 3, 0: 3})
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


def _oracle_symmetries(t, n):
    return t == t.conjugate(), t == t.level_dual(n)


@settings(max_examples=200, deadline=None)
@given(tables, st.integers(min_value=0, max_value=3), st.sampled_from(range(4)))
# every image is present, but with another count
@example(table({(0, 0, 0): 1, (1, 1, 0): 2}), 1, 0)
@example(table({(0, 1, Fraction(1, 3)): 1, (1, 0, Fraction(2, 3)): 2}), 1, 0)
# a weight-n group that is its own image under both maps, with other counts
@example(table({(1, 1, Fraction(1, 3)): 1, (1, 1, Fraction(2, 3)): 2}), 2, 0)
# conjugation-symmetric, but its dual image (1, 1, 1/2) is absent at n = 1
@example(table({(0, 0, Fraction(1, 2)): 1}), 1, 0)
def test_symmetries_equal_the_mirrored_tables(t, n, mirror):
    # random tables are mostly asymmetric; adding a table's images makes it
    # symmetric under conjugation (mirror 1), level duality (2) or both (3)
    if mirror & 1:
        t = t + t.conjugate()
    if mirror & 2:
        t = t + t.level_dual(n)
    conjugate, dual = t.symmetries(n)
    assert (conjugate, dual) == _oracle_symmetries(t, n)
    assert conjugate >= bool(mirror & 1) and dual >= bool(mirror & 2)


def _report_tables(report):
    """Every pair table of a report and of its germs."""
    yield from (value for value in report if isinstance(value, SpectralPairTable))
    yield from (report.weight_resolved or {}).values()
    yield from (germ.pairs for germ, _ in report.spec.singularities)


@pytest.mark.parametrize(
    "source", ["golden", *(f"census{d}" for d in range(2, 11))]
)
def test_symmetries_of_every_golden_and_census_table(source):
    if source == "golden":
        reports = [build_report(parse_spec(path.read_text(encoding="utf-8")))
                   for path in sorted(GOLDEN.glob("*.json"))]
    else:
        reports = census_rows(int(source.removeprefix("census")))
    seen = 0
    for report in reports:
        n = report.spec.n
        for t in _report_tables(report):
            # at level n + 1 most of these tables are not self-dual
            for level in (n, n + 1):
                assert t.symmetries(level) == _oracle_symmetries(t, level)
            seen += 1
    assert seen


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
    # multiple of the least one; pair_table writes Fraction angles as "a/b" rows
    den = lcm(*(alpha.denominator for _, _, alpha in entries)) * extra
    by_numerator = SpectralPairTable(
        den,
        grouped({
            (p, q, alpha.numerator * (den // alpha.denominator)): c
            for (p, q, alpha), c in entries.items()
        }),
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
    total = table_sum(terms)
    if nonunipotent:
        total = total.nonunipotent()
    assert table_entries(total) == oracle_table_sum(terms, nonunipotent)


def _pair_and_bound_tables(report) -> list:
    """Every pair and bound table a report reaches: its fields (a dict field
    by its values), its curve bound, the local pair sum, the table at
    infinity and each germ's pairs."""
    spec, derived = report.spec, report.derived
    values = [report.bound_curve, derived.local_pair_sum, derived.infinity]
    values += [germ.pairs for germ, _ in spec.singularities]
    for value in report:
        values += value.values() if isinstance(value, dict) else [value]
    return [v for v in values if isinstance(v, (SpectralPairTable, BoundTable))]


def test_every_stored_group_is_nonempty_with_counts_and_angles_in_range():
    # __eq__ compares the groups directly, so an empty group or a stored
    # zero count would make equal tables unequal
    reports = [build_report(parse_spec(path.read_text(encoding="utf-8")))
               for path in sorted(GOLDEN.glob("*.json"))]
    for d in range(2, 11):
        reports += census_rows(d)
    seen = 0
    for report in reports:
        for table in _pair_and_bound_tables(report):
            seen += 1
            exact = getattr(table, "_exact", frozenset())
            for (p, q), group in table._groups.items():
                assert group, (report.spec, p, q)
                for k, value in group.items():
                    assert 0 <= k < table._den, (report.spec, p, q, k)
                    if isinstance(table, SpectralPairTable):
                        assert value > 0, (report.spec, p, q, k)
                    else:
                        assert value > 0 or (p, q, k) in exact and value == 0
    assert seen > 10 * len(reports)


def test_bound_tables_compare_over_a_common_denominator_with_their_exact_keys():
    exact = frozenset([(0, 1, 1), (1, 1, 0)])
    table = BoundTable(3, {(0, 1): {1: 2, 2: 1}, (1, 1): {0: 0}}, exact)
    over_6 = BoundTable(6, {(0, 1): {2: 2, 4: 1}, (1, 1): {0: 0}},
                        frozenset([(0, 1, 2), (1, 1, 0)]))
    assert table == over_6 and over_6 == table
    # the same bounds with a key moved out of exact
    moved = BoundTable(6, {(0, 1): {2: 2, 4: 1}, (1, 1): {0: 0}},
                       frozenset([(1, 1, 0)]))
    assert table != moved and moved != table
    # a pair table is never a bound table, whatever its groups
    groups = {(0, 1): {1: 2}}
    assert SpectralPairTable(3, groups) != BoundTable(3, groups)
    assert BoundTable(3, groups) != SpectralPairTable(3, groups)
