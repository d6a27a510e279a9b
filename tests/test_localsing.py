"""Local singularity germs: Milnor numbers, branches, spectra, local
Alexander polynomials and local spectral pairs."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    alexander_alpha_marginal,
    group_alpha_counts,
    milnor_orlik_alexander,
    numeric_char_poly,
    oracle_expand,
    oracle_local_alexander,
    oracle_local_pairs,
    oracle_spectrum,
    pair_table,
    t_power_minus_one,
    table_alpha_marginal,
    table_entries,
)

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    Ordinary,
    parse_spec,
    spectrum,
    steenbrink_infinity,
)
from specpairs.cli import census_rows
from specpairs.localsing import cyclotomic

GOLDEN = Path(__file__).parent / "golden"


def test_milnor_number_examples():
    assert Ordinary(2).milnor == 1
    assert Brieskorn(2, 3).milnor == 2
    assert Ordinary(4).milnor == 9


def test_branches_examples():
    assert Ordinary(3).branches == 3
    assert Brieskorn(2, 3).branches == 1
    assert Brieskorn(4, 6).branches == 2


def test_spectrum_examples():
    assert spectrum(Ordinary(2)) == (Fraction(1),)
    assert spectrum(Brieskorn(2, 3)) == (Fraction(5, 6), Fraction(7, 6))
    assert spectrum(Ordinary(3)) == (
        Fraction(2, 3),
        Fraction(1),
        Fraction(1),
        Fraction(4, 3),
    )


def test_spectrum_is_read_off_the_pair_table_of_every_germ():
    # built-in germs of the golden corpus and of a census, and x^a + y^b:
    # an explicit germ given only a built-in germ's pairs has its spectrum
    # and its Alexander polynomial, and both match the Fraction oracle
    specs = [parse_spec(path.read_text(encoding="utf-8"))
             for path in sorted(GOLDEN.glob("*.json"))]
    germs = {germ for spec in specs for germ, _ in spec.singularities}
    builtin = {germ for germ in germs if not isinstance(germ, Explicit)}
    builtin |= {germ for row in census_rows(10)
                for germ, _ in row.spec.singularities}
    builtin |= {Brieskorn(a, b) for a in range(2, 13) for b in range(2, 13)}
    assert {type(germ) for germ in builtin} == {Ordinary, Brieskorn}
    for germ in builtin:
        explicit = Explicit(germ.pairs)
        oracle = tuple(oracle_spectrum(*germ.exponents))
        assert spectrum(explicit) == spectrum(germ) == oracle
        assert explicit.alexander == germ.alexander
    # the surface germs are the Brieskorn-Pham germs (2, 2, 2) and (2, 2, 3)
    surfaces = {spec.d: [spectrum(germ) for germ, _ in spec.singularities]
                for spec in specs if spec.n == 2}
    assert surfaces == {3: [(Fraction(3, 2),)], 4: [(Fraction(4, 3), Fraction(5, 3))]}


def test_local_alexander_examples():
    assert Ordinary(2).alexander == CyclotomicFactorization(factors={1: 1})
    assert Ordinary(3).alexander == CyclotomicFactorization(factors={1: 2, 3: 1})
    assert Brieskorn(2, 3).alexander == CyclotomicFactorization(factors={6: 1})


def test_local_alexander_against_torus_link_closed_form():
    # (t-1) (t^lcm - 1)^gcd / ((t^a - 1)(t^b - 1)), via factorization arithmetic
    from math import gcd, lcm

    for a in range(2, 10):
        for b in range(a, 10):
            g, l = gcd(a, b), lcm(a, b)
            numerator = t_power_minus_one(1) * t_power_minus_one(l) ** g
            denominator = t_power_minus_one(a) * t_power_minus_one(b)
            assert Brieskorn(a, b).alexander == numerator.divide(denominator)


def test_local_alexander_against_numeric_characteristic_polynomial():
    for germ in (Ordinary(2), Ordinary(5), Brieskorn(2, 3), Brieskorn(4, 6)):
        expanded = oracle_expand(germ.alexander)
        exact = [complex(expanded.get(e, 0)) for e in range(max(expanded) + 1)]
        numeric = numeric_char_poly(spectrum(germ))
        assert len(exact) == len(numeric)
        assert all(abs(a - b) < 1e-9 for a, b in zip(exact, numeric))


def test_local_pairs_examples():
    assert Ordinary(2).pairs == pair_table({(1, 1, 0): 1})
    assert Ordinary(3).pairs == pair_table(
        {(1, 1, 0): 2, (0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1}
    )
    assert Brieskorn(2, 3).pairs == pair_table(
        {(0, 1, Fraction(5, 6)): 1, (1, 0, Fraction(1, 6)): 1}
    )


def test_ordinary_point_table_is_the_table_at_infinity():
    for m in range(2, 13):
        assert Ordinary(m).pairs == steenbrink_infinity(1, m)


@pytest.mark.parametrize(
    "germ",
    [Ordinary(m) for m in range(2, 13)]
    + [Brieskorn(a, b) for a in range(2, 13) for b in range(a, 13)],
)
def test_builtin_invariants(germ):
    mu = germ.milnor
    assert germ.alexander.degree == mu
    table = germ.pairs
    assert table.total_dim() == mu
    assert table.unipotent().total_dim() == germ.branches - 1
    assert table.conjugate() == table
    # eigenvalues of the Alexander polynomial match the table marginal
    assert alexander_alpha_marginal(germ.alexander) == table_alpha_marginal(table)


def test_cyclotomic_against_the_oracles():
    # one rule for every germ kind: a pair table gives the polynomial whose
    # eigenvalues are the table's angles, with the multiplicities that an
    # independent regrouping of the spectrum finds
    for a in range(2, 30):
        for b in range(2, 30):
            germ = Brieskorn(a, b)
            expected = group_alpha_counts(s % 1 for s in oracle_spectrum(a, b))
            f = cyclotomic(germ.pairs)
            assert germ.alexander.factors == f.factors == expected
            assert alexander_alpha_marginal(f) == table_alpha_marginal(germ.pairs)


@pytest.mark.parametrize(
    "germ, a, b",
    [(Ordinary(m), m, m) for m in range(2, 41)]
    + [(Brieskorn(a, b), a, b) for a in range(2, 13) for b in range(2, 13)],
    ids=str,
)
def test_integer_enumeration_against_fraction_oracle(germ, a, b):
    assert list(spectrum(germ)) == oracle_spectrum(a, b)
    assert table_entries(germ.pairs) == oracle_local_pairs(a, b)
    assert germ.alexander.factors == oracle_local_alexander(a, b)


def test_local_alexander_against_milnor_orlik():
    germs = [(Brieskorn(a, b), a, b) for a in range(2, 30) for b in range(2, 30)]
    germs += [(Ordinary(m), m, m) for m in range(2, 41)]
    mismatched = [
        germ for germ, a, b in germs
        if germ.alexander.factors != milnor_orlik_alexander(a, b)
    ]
    assert mismatched == []


def test_explicit_passthrough():
    alexander = CyclotomicFactorization(factors={2: 1, 1: 1})
    pairs = pair_table({(0, 1, Fraction(1, 2)): 1, (1, 1, 0): 1})
    explicit = Explicit(milnor=2, branches=2, alexander=alexander, pairs=pairs)
    assert explicit.milnor == 2
    assert explicit.branches == 2
    assert explicit.alexander == alexander
    assert explicit.pairs == pairs


def test_explicit_germ_reads_absent_fields_off_its_pairs():
    pairs = pair_table({(0, 1, Fraction(1, 2)): 1, (1, 0, Fraction(1, 2)): 1,
                        (1, 1, 0): 2})
    germ = Explicit(pairs)
    assert (germ.milnor, germ.branches) == (4, 3)
    assert germ.alexander == CyclotomicFactorization({1: 2, 2: 2})
    assert germ == Explicit(pairs=pairs) != Explicit(pairs, milnor=4)
    # the fields hold what was given; the answers are not assignable
    assert germ._asdict() == {"pairs": pairs, "milnor": None, "branches": None,
                              "alexander": None, "grf_dims": None}
    with pytest.raises(AttributeError):
        germ.milnor = 5


def test_hodge_filtration_dims():
    # dim Gr_F^p is the sum of h^{p,q}_alpha over q and alpha
    assert Brieskorn(2, 3).pairs.hodge_filtration_marginal() == {0: 1, 1: 1}
    assert Ordinary(3).pairs.hodge_filtration_marginal() == {0: 1, 1: 3}
    table = pair_table(
        {(1, 1, Fraction(1, 2)): 1, (0, 2, Fraction(1, 3)): 2, (2, 0, Fraction(2, 3)): 2}
    )
    assert table.hodge_filtration_marginal() == {0: 2, 1: 1, 2: 2}
    assert pair_table().hodge_filtration_marginal() == {}


def test_constructor_validation():
    with pytest.raises(ValueError):
        Ordinary(1)
    with pytest.raises(ValueError):
        Brieskorn(1, 3)
    with pytest.raises(ValueError):
        Explicit(
            milnor=0,
            branches=1,
            alexander=CyclotomicFactorization(),
            pairs=pair_table(),
        )
    with pytest.raises(ValueError):  # the mass of an empty table is 0
        Explicit(pair_table())
    with pytest.raises(ValueError):
        Explicit(pair_table({(1, 1, 0): 1}), branches=0)


def test_explicit_replace_and_make_go_through_the_constructor():
    pairs = Brieskorn(2, 3).pairs
    germ = Explicit(pairs)
    with pytest.raises(ValueError):
        germ._replace(milnor=0, branches=-3)
    with pytest.raises(ValueError):
        Explicit._make([pairs, 0, -3, None, None])
    copy = germ._replace(milnor=2)
    assert isinstance(copy, Explicit) and copy.milnor == germ.milnor == 2
    assert copy == Explicit(pairs, milnor=2) and germ._replace() == germ
