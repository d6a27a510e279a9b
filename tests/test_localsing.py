"""Local singularity germs: Milnor numbers, branches, spectra, local
Alexander polynomials and local spectral pairs."""

from __future__ import annotations

from fractions import Fraction

import pytest
from helpers import (
    milnor_orlik_alexander,
    numeric_char_poly,
    oracle_expand,
    oracle_local_alexander,
    oracle_local_pairs,
    oracle_spectrum,
    table_entries,
)

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    ExplicitHasNoSpectrum,
    Ordinary,
    SpectralPairTable,
    spectrum,
    steenbrink_infinity,
    t_power_minus_one,
)


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


def test_spectrum_explicit_rejected():
    explicit = Explicit(
        milnor=1,
        branches=2,
        alexander=CyclotomicFactorization(factors={1: 1}),
        pairs=SpectralPairTable({(1, 1, 0): 1}),
    )
    with pytest.raises(ExplicitHasNoSpectrum):
        spectrum(explicit)


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
    assert Ordinary(2).pairs == SpectralPairTable({(1, 1, 0): 1})
    assert Ordinary(3).pairs == SpectralPairTable(
        {(1, 1, 0): 2, (0, 1, Fraction(2, 3)): 1, (1, 0, Fraction(1, 3)): 1}
    )
    assert Brieskorn(2, 3).pairs == SpectralPairTable(
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
    from specpairs.localsing import alexander_alpha_marginal

    assert alexander_alpha_marginal(germ.alexander) == table.alpha_marginal()


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
    pairs = SpectralPairTable({(0, 1, Fraction(1, 2)): 1, (1, 1, 0): 1})
    explicit = Explicit(milnor=2, branches=2, alexander=alexander, pairs=pairs)
    assert explicit.milnor == 2
    assert explicit.branches == 2
    assert explicit.alexander == alexander
    assert explicit.pairs == pairs


def test_hodge_filtration_dims():
    # dim Gr_F^p is the sum of h^{p,q}_alpha over q and alpha
    assert Brieskorn(2, 3).pairs.hodge_filtration_marginal() == {0: 1, 1: 1}
    assert Ordinary(3).pairs.hodge_filtration_marginal() == {0: 1, 1: 3}
    table = SpectralPairTable(
        {(1, 1, Fraction(1, 2)): 1, (0, 2, Fraction(1, 3)): 2, (2, 0, Fraction(2, 3)): 2}
    )
    assert table.hodge_filtration_marginal() == {0: 2, 1: 1, 2: 2}
    assert SpectralPairTable().hodge_filtration_marginal() == {}


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
            pairs=SpectralPairTable(),
        )
