"""Local invariants of isolated plane-curve singularity germs.

Built-in models are the ordinary m-fold point (m concurrent smooth branches)
and the Brieskorn germ x^a + y^b.  Both are quasi-homogeneous, so the local
monodromy has finite order and every invariant is read off the singularity
spectrum {i/a + j/b}.  Germs that are not quasi-homogeneous, and germs in
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
from math import gcd, lcm

from .laurent import CyclotomicFactorization, euler_phi
from .pairs import SpectralPairTable


class ExplicitHasNoSpectrum(TypeError):
    """Spectrum enumeration is only defined for the quasi-homogeneous built-ins."""


class _QuasiHomogeneous:
    """The tables of a built-in germ, computed once per instance (on a frozen
    dataclass, cached_property writes the instance dict directly)."""

    @cached_property
    def _spectrum(self) -> tuple[int, dict[int, int]]:
        return spectrum_numerators(self)

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
        """The local pairs: each spectrum element s contributes (0, 1, s)
        when s is in (0, 1), (1, 0, s - 1) when s is in (1, 2), and
        (1, 1, 0) when s = 1; the eigenvalue-1 part has dimension
        branches - 1 and pure type (1, 1)."""
        den, numerators = self._spectrum
        entries: dict[tuple[int, int, int], int] = {}
        for k, c in numerators.items():
            if k < den:
                entries[(0, 1, k)] = c
            elif k == den:
                entries[(1, 1, 0)] = c
            else:
                entries[(1, 0, k - den)] = c
        return SpectralPairTable._from_numerators(den, entries)


@dataclass(frozen=True)
class Ordinary(_QuasiHomogeneous):
    """An ordinary m-fold point: m pairwise transverse smooth branches."""

    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 2:
            raise ValueError("ordinary point needs multiplicity >= 2")


@dataclass(frozen=True)
class Brieskorn(_QuasiHomogeneous):
    """The germ x^a + y^b at the origin."""

    a: int
    b: int

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


def _weights(s: Ordinary | Brieskorn) -> tuple[int, int]:
    if isinstance(s, Ordinary):
        return s.multiplicity, s.multiplicity
    return s.a, s.b


def milnor_number(s: LocalSingularity) -> int:
    """Dimension of the middle cohomology of the local Milnor fiber."""
    if isinstance(s, Explicit):
        return s.milnor
    a, b = _weights(s)
    return (a - 1) * (b - 1)


def branches(s: LocalSingularity) -> int:
    """Number of irreducible local branches of the germ."""
    if isinstance(s, Explicit):
        return s.branches
    if isinstance(s, Ordinary):
        return s.multiplicity
    return gcd(s.a, s.b)


def spectrum_numerators(s: LocalSingularity) -> tuple[int, dict[int, int]]:
    """Spectrum of a built-in germ as (den, {k: multiplicity}): each value
    k/den in (0, 2) with its multiplicity.

    For x^a + y^b the values are i/a + j/b (1 <= i < a, 1 <= j < b), with
    numerators i*(den/a) + j*(den/b) over den = lcm(a, b).  The ordinary
    m-fold point is the case a = b = m in closed form: k/m has multiplicity
    min(k - 1, 2m - 1 - k) for 2 <= k <= 2m - 2.
    """
    if isinstance(s, Explicit):
        raise ExplicitHasNoSpectrum(
            "explicit local data carries tables, not a spectrum"
        )
    if isinstance(s, Ordinary):
        m = s.multiplicity
        return m, {k: min(k - 1, 2 * m - 1 - k) for k in range(2, 2 * m - 1)}
    den = lcm(s.a, s.b)
    u, v = den // s.a, den // s.b
    out: dict[int, int] = {}
    for first in range(u, den, u):  # first = i*u, the numerator of i/a
        for k in range(first + v, first + den, v):
            out[k] = out.get(k, 0) + 1
    return den, out


def spectrum(s: LocalSingularity) -> tuple[Fraction, ...]:
    """Singularity spectrum of a built-in germ, as a sorted multiset in (0, 2).

    For x^a + y^b this is { i/a + j/b : 1 <= i <= a-1, 1 <= j <= b-1 }; the
    ordinary m-fold point is the case a = b = m.
    """
    # the enumerator itself refuses explicit data
    den, numerators = spectrum_numerators(s) if isinstance(s, Explicit) else s._spectrum
    out: list[Fraction] = []
    for k in sorted(numerators):
        out.extend([Fraction(k, den)] * numerators[k])
    return tuple(out)


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
