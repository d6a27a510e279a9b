"""Local invariants of isolated plane-curve singularity germs.

Built-in models are the ordinary m-fold point (m concurrent smooth branches)
and the Brieskorn germ x^a + y^b, the Brieskorn-Pham germs with exponents
(m, m) and (a, b).  Both are quasi-homogeneous, so the local monodromy has
finite order and every invariant is read off the singularity spectrum
{i/a + j/b}, enumerated by the engine in ``milnor`` that also gives the
table at infinity.  Germs that are not quasi-homogeneous, and germs in
ambient dimension above curves, enter through the Explicit variant carrying
user-supplied data.

A built-in germ enumerates its spectrum once, on first use, and keeps it on
the instance with the local pairs and the local Alexander polynomial read
off it; every spec holding the same germ object shares these read-only
values, and they are freed with the germ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .laurent import CyclotomicFactorization, euler_phi
from .milnor import _pairs_at_level, brieskorn_pham_spectrum
from .pairs import SpectralPairTable


class ExplicitHasNoSpectrum(TypeError):
    """Spectrum enumeration is only defined for the quasi-homogeneous built-ins."""


class _QuasiHomogeneous:
    """The tables of the built-in germ x^a + y^b, (a, b) = `exponents`, made
    once per instance (cached_property writes a frozen dataclass's dict)."""

    @cached_property
    def _spectrum(self) -> tuple[int, dict[int, int]]:
        return brieskorn_pham_spectrum(self.exponents)

    @cached_property
    def alexander(self) -> CyclotomicFactorization:
        """The top local Alexander polynomial.  The eigenvalue multiset of a
        germ is Galois-stable, so the eigenvalues of order o, counted
        together, make up Phi(o) to the power count / phi(o)."""
        den, numerators = self._spectrum
        per_order: dict[int, int] = {}
        for k, c in numerators.items():
            order = den // gcd(k, den)
            per_order[order] = per_order.get(order, 0) + c
        return CyclotomicFactorization._from_parts(
            {o: c // euler_phi(o) for o, c in per_order.items()}
        )

    @cached_property
    def pairs(self) -> SpectralPairTable:
        """The spectrum's pairs at level 1: (0, 1, s) for s in (0, 1),
        (1, 0, s - 1) for s in (1, 2) and (1, 1, 0) for s = 1, so the
        eigenvalue-1 part has dimension branches - 1 and type (1, 1)."""
        return _pairs_at_level(1, *self._spectrum)


@dataclass(frozen=True)
class Ordinary(_QuasiHomogeneous):
    """An ordinary m-fold point: m pairwise transverse smooth branches."""

    multiplicity: int
    exponents = property(lambda self: (self.multiplicity, self.multiplicity))

    def __post_init__(self):
        if self.multiplicity < 2:
            raise ValueError("ordinary point needs multiplicity >= 2")


@dataclass(frozen=True)
class Brieskorn(_QuasiHomogeneous):
    """The germ x^a + y^b at the origin."""

    a: int
    b: int
    exponents = property(lambda self: (self.a, self.b))

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise ValueError("Brieskorn exponents must both be >= 2")


@dataclass(frozen=True)
class Explicit:
    """User-supplied local data for a germ without a built-in model.

    grf_dims, when present, lists (p, dim Gr_F^p) pairs of the Hodge
    filtration on the middle cohomology of the local Milnor fiber.  The
    pipeline reads these dimensions off the pair table (summing over q and
    alpha); validate checks supplied ones against it.
    """

    milnor: int
    branches: int
    alexander: CyclotomicFactorization
    pairs: SpectralPairTable
    grf_dims: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.milnor < 1:
            raise ValueError("Milnor number must be positive")
        if self.branches < 1:
            raise ValueError("branch count must be positive")


LocalSingularity = Ordinary | Brieskorn | Explicit


def milnor_number(s: LocalSingularity) -> int:
    """Dimension of the middle cohomology of the local Milnor fiber."""
    if isinstance(s, Explicit):
        return s.milnor
    return prod(a - 1 for a in s.exponents)


def branches(s: LocalSingularity) -> int:
    """Number of irreducible local branches of the germ."""
    if isinstance(s, Explicit):
        return s.branches
    return gcd(*s.exponents)


def spectrum(s: LocalSingularity) -> tuple[Fraction, ...]:
    """Singularity spectrum of a built-in germ, as a sorted multiset in (0, 2):
    { i/a + j/b : 1 <= i <= a-1, 1 <= j <= b-1 } for the exponents (a, b)."""
    if isinstance(s, Explicit):
        raise ExplicitHasNoSpectrum("explicit germs carry tables, not a spectrum")
    den, numerators = s._spectrum
    return tuple(Fraction(k, den) for k in sorted(numerators)
                 for _ in range(numerators[k]))


def local_alexander(s: LocalSingularity) -> CyclotomicFactorization:
    """Top local Alexander polynomial: the characteristic polynomial of the
    local monodromy, prod over spectrum of (t - exp(2*pi*i*s)); supplied
    data for an explicit germ."""
    return s.alexander


def local_pairs(s: LocalSingularity) -> SpectralPairTable:
    """Spectral pairs of the middle cohomology of the local Milnor fiber,
    read off the spectrum for a built-in germ; supplied data for an
    explicit germ."""
    return s.pairs


def alexander_alpha_marginal(f: CyclotomicFactorization) -> dict[Fraction, int]:
    """Eigenvalue multiset of a cyclotomic product, grouped by angle alpha."""
    out: dict[Fraction, int] = {}
    for k, m in f.factors.items():
        for j in range(k):
            if k == 1 or gcd(j, k) == 1:
                out[Fraction(j, k)] = out.get(Fraction(j, k), 0) + m
    return out
