"""Divisibility bounds and spectral-pair upper bounds for the complement."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from helpers import bound_table, oracle_curve_bound, oracle_mhat, runs, table_entries
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    HypersurfaceSpec,
    InvalidSpec,
    Ordinary,
    divisibility_bound_infinity,
    mhat,
    spectral_bound_arrangement,
    spectral_bound_complement,
    spectral_bound_curve,
)
from specpairs.bounds import _curve_bound, _mhat_excess

THREE_GENERIC_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(2), 3),)
)
THREE_CONCURRENT_LINES = HypersurfaceSpec(
    n=1, d=3, components=3, singularities=((Ordinary(3), 1),)
)
CUSPIDAL_CUBIC = HypersurfaceSpec(
    n=1, d=3, components=1, singularities=((Brieskorn(2, 3), 1),)
)
SMOOTH_QUARTIC_CURVE = HypersurfaceSpec(n=1, d=4, components=1)


def test_mhat_examples():
    assert mhat(6, Fraction(1, 2)) == 3
    assert mhat(6, Fraction(1, 4)) == 1
    assert mhat(3, Fraction(2, 3)) == 2
    with pytest.raises(ValueError):
        mhat(6, Fraction(0))


def test_divisibility_bound_infinity_examples():
    assert divisibility_bound_infinity(1, 3) == CyclotomicFactorization({1: 2, 3: 1})
    assert divisibility_bound_infinity(2, 2) == CyclotomicFactorization({2: 1})
    assert divisibility_bound_infinity(1, 2) == CyclotomicFactorization({1: 1})


def test_divisibility_bound_infinity_is_a_polynomial():
    # the quotient (t-1)^((-1)^(n+1)) * (t^d-1)^xi builds with no negative
    # exponent, which is why a factorization needs no formal values; at
    # (2, 2) the exponent of t - 1 is -1 + xi = 0
    for n in range(7):
        for d in range(2, 13):
            xi = ((d - 1) ** (n + 1) + (-1) ** n) // d
            expected = {k: xi for k in range(1, d + 1) if d % k == 0}
            expected[1] += (-1) ** (n + 1)
            assert min(expected.values()) >= 0
            bound = divisibility_bound_infinity(n, d)
            assert bound.factors == {k: m for k, m in expected.items() if m}
    assert divisibility_bound_infinity(2, 2).multiplicity(1) == 0


def test_divisibility_bound_local_examples():
    # the local bound is made once per spec, with spec.derived
    assert THREE_GENERIC_LINES.derived.local_bound == CyclotomicFactorization(
        factors={1: 4}
    )
    assert CUSPIDAL_CUBIC.derived.local_bound == CyclotomicFactorization(
        factors={1: 2, 6: 1}
    )
    assert SMOOTH_QUARTIC_CURVE.derived.local_bound == CyclotomicFactorization(
        factors={1: 9}
    )


def test_divisibility_bound_local_negative_mu():
    overloaded = HypersurfaceSpec(
        n=1, d=3, components=1, singularities=((Brieskorn(2, 6), 1),)
    )
    with pytest.raises(InvalidSpec) as info:
        overloaded.derived.local_bound
    assert info.value.violations[0].code == "negative_mu"


def test_spectral_bound_complement_cuspidal_cubic():
    bounds = spectral_bound_complement(CUSPIDAL_CUBIC)
    # the cusp contributes at 5/6 but the grading index is not integral there:
    # the bounds live on the angles j/3 of the table at infinity
    assert not [row for row in bounds.to_rows() if row[2].endswith("/6")]


def test_spectral_bound_complement_concurrent_lines():
    bounds = spectral_bound_complement(THREE_CONCURRENT_LINES)
    assert bounds.bound_at((0, 1, 2)) == 1  # alpha = 2/3
    assert bounds.bound_at((1, 0, 1)) == 1


def test_spectral_bound_complement_smooth_is_empty_above_one():
    bounds = spectral_bound_complement(SMOOTH_QUARTIC_CURVE)
    assert all(alpha == "0/1" for _, _, alpha, *_ in bounds.to_rows())


def test_spectral_bound_complement_hd_side():
    with_hd = HypersurfaceSpec(
        n=1, d=3, components=3,
        singularities=((Ordinary(2), 3),),
        h_d=((0, 2, 0), (1, 1, 0), (2, 0, 0)),
    )
    bounds = spectral_bound_complement(with_hd)
    # local (1,1,0) mass is 3, hD contributes 0, Milnor side is 2
    assert bounds.bound_at((1, 1, 0)) == 2


def test_spectral_bound_curve_examples():
    bounds = spectral_bound_curve(
        HypersurfaceSpec(n=1, d=3, components=3, singularities=((Ordinary(2), 3),))
    )
    assert bounds.bound_at((1, 1, 0)) == 2
    assert bounds.bound_at((0, 1, 2)) == 1  # alpha = 2/3
    assert bounds.bound_at((1, 0, 1)) == 1
    rows = bounds.to_rows()
    assert [1, 1, "0/1", 2, "exact"] in rows and [0, 1, "2/3", 1, "upper"] in rows

    conic = spectral_bound_curve(HypersurfaceSpec(n=1, d=2, components=2,
                                                  singularities=((Ordinary(2), 1),)))
    assert conic.to_rows() == [[1, 1, "0/1", 1, "exact"]]


def test_curve_bound_vanishes_at_one_over_d():
    for d in range(2, 13):
        bounds = spectral_bound_curve(HypersurfaceSpec(n=1, d=d, components=1))
        assert bounds.bound_at((0, 1, 1)) == 0  # alpha = 1/d
        assert bounds.bound_at((1, 0, d - 1)) == 0


def test_curve_bound_equals_its_definition():
    for d in range(2, 41):
        for r in sorted({1, 2, (d + 1) // 2, d}):
            assert _curve_bound(d, r) == oracle_curve_bound(d, r), (d, r)


def test_mhat_excess_equals_the_sum_of_mhat_terms():
    # over dens that m divides, that share a factor with m, and that are
    # prime to it: the first multiple of den // gcd(m, den) carries a zero
    # term exactly when m divides den, and no zero is kept
    rng = random.Random(39)
    for _ in range(300):
        den = rng.randint(1, 60)
        points = [(rng.randint(1, 30), rng.randint(1, 4))
                  for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:  # a multiplicity that divides den
            dividing = [m for m in range(1, den + 1) if den % m == 0]
            points.append((rng.choice(dividing), 1))
        expected = {}
        for k in range(1, den):
            value = sum(c * (oracle_mhat(m, Fraction(k, den)) - 1) for m, c in points)
            if value:
                expected[k] = value
        assert _mhat_excess(points, den) == expected, (points, den)


def test_spectral_bound_arrangement_examples():
    # the tables are over the denominator d: (0, 1, j) is the angle j/d
    assert spectral_bound_arrangement(3, ((2, 3),)).bound_at((0, 1, 2)) == 0
    assert spectral_bound_arrangement(3, ((3, 1),)).bound_at((0, 1, 2)) == 1
    assert spectral_bound_arrangement(4, ((2, 6),)).bound_at((0, 1, 1)) == 0
    table = spectral_bound_arrangement(3, ((3, 1),))
    assert [1, 1, "0/1", 2, "exact"] in table.to_rows()


def test_spectral_bound_arrangement_equals_the_bound_at_every_angle():
    # the bound of the definition, min(j - 1, sum of mhat(m_i, j/d) - 1),
    # at every j; the multisets need not be weak data of d lines
    rng = random.Random(10)
    for _ in range(200):
        d = rng.randint(2, 40)
        mults = [rng.randint(2, d) for _ in range(rng.randint(0, 12))]
        one = (1, 1, Fraction(0))
        entries = {one: d - 1}
        for j in range(1, d):
            alpha = Fraction(j, d)
            value = min(j - 1, sum(oracle_mhat(m, alpha) - 1 for m in mults))
            entries[(0, 1, alpha)] = entries[(1, 0, 1 - alpha)] = value
        expected = bound_table(entries, exact=[one])
        assert spectral_bound_arrangement(d, runs(mults)) == expected, (d, mults)
        # one run per point, in any order: a multiplicity may repeat
        points = [(m, 1) for m in mults]
        assert spectral_bound_arrangement(d, points) == expected, (d, mults)


def test_arrangement_vanishing_for_coprime_angles():
    for d, mults in ((4, (2,) * 6), (5, (2, 2, 3, 3)), (6, (3, 3, 3, 3, 3))):
        assert max(mults) < d
        bounds = spectral_bound_arrangement(d, runs(mults))
        for j in range(1, d):
            if gcd(j, d) == 1:
                assert bounds.bound_at((0, 1, j)) == 0  # alpha = j/d


def test_arrangement_bounds_below_curve_bounds():
    curve = spectral_bound_curve(
        HypersurfaceSpec(n=1, d=4, components=4,
                         singularities=((Ordinary(2), 6),))
    )
    arrangement = spectral_bound_arrangement(4, ((2, 6),))
    caps = table_entries(curve)
    for key, value in table_entries(arrangement).items():
        if key[2] > 0:
            assert value <= caps.get(key, 0)


bounds_by_key = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.fractions(min_value=0, max_value=Fraction(11, 12), max_denominator=12),
    ),
    st.integers(min_value=0, max_value=4),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(bounds_by_key, bounds_by_key)
def test_exceeding_lists_the_keys_above_the_cap_in_key_order(entries, caps):
    want = [
        (p, q, f"{alpha.numerator}/{alpha.denominator}", caps.get((p, q, alpha), 0))
        for (p, q, alpha), v in sorted(entries.items())
        if alpha > 0 and v > caps.get((p, q, alpha), 0)
    ]
    assert bound_table(entries).exceeding(bound_table(caps)) == want


def test_local_side_mass_identity():
    # above eigenvalue 1, the available local mass is total local mass minus
    # the eigenvalue-1 part
    for spec in (THREE_GENERIC_LINES, THREE_CONCURRENT_LINES, CUSPIDAL_CUBIC):
        total = 0
        unipotent = 0
        above = 0
        for s, count in spec.singularities:
            table = s.pairs
            total += table.total_dim() * count
            unipotent += table.unipotent().total_dim() * count
            above += table.nonunipotent().total_dim() * count
        assert above == total - unipotent


def test_bound_table_rows():
    table = spectral_bound_curve(
        HypersurfaceSpec(n=1, d=3, components=3, singularities=((Ordinary(2), 3),))
    )
    assert table.to_rows() == [
        [0, 1, "2/3", 1, "upper"],
        [1, 0, "1/3", 1, "upper"],
        [1, 1, "0/1", 2, "exact"],
    ]
