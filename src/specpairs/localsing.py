"""Local invariants of isolated plane-curve singularity germs.

Built-in models are the ordinary m-fold point (m concurrent smooth branches)
and the Brieskorn germ x^a + y^b, the Brieskorn-Pham germs with exponents
(m, m) and (a, b).  Both are quasi-homogeneous, so the local monodromy has
finite order and every invariant is read off the singularity spectrum
{i/a + j/b}, enumerated by the engine in ``milnor`` that also gives the
table at infinity.  Germs that are not quasi-homogeneous, and germs in
ambient dimension above curves, enter through the Explicit variant carrying
user-supplied data.  Every germ answers `milnor`, `branches`, `pairs` and
`alexander` itself, and `work`, its closed-form price in the work estimate
of ``model.validate``.

A built-in germ computes its Milnor number and branch count and enumerates
its spectrum once each, on first use, and keeps them on the instance with
the local pairs and the local Alexander polynomial read off the spectrum;
every spec holding the same germ object shares these read-only values, and
they are freed with the germ.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .laurent import CyclotomicFactorization, euler_phi
from .milnor import _pairs_at_level, brieskorn_pham_spectrum
from .pairs import SpectralPairTable


class ExplicitHasNoSpectrum(TypeError):
    """Spectrum enumeration is only defined for the quasi-homogeneous built-ins."""


class _QuasiHomogeneous:
    """The invariants of the built-in germ x^a + y^b, (a, b) = `exponents`;
    its Milnor number, branch count and tables are made once per instance.
    A germ is a frozen value, shown by its constructor arguments `_fields`;
    cached_property writes straight into the instance dict."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    __delattr__ = __setattr__
    __hash__ = lambda self: hash(self.exponents)

    def __eq__(self, other):
        return type(other) is type(self) and self.exponents == other.exponents

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    milnor = cached_property(lambda self: prod(a - 1 for a in self.exponents))
    branches = cached_property(lambda self: gcd(*self.exponents))

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
        return CyclotomicFactorization(
            {o: c // euler_phi(o) for o, c in per_order.items()}
        )

    @cached_property
    def pairs(self) -> SpectralPairTable:
        """The spectrum's pairs at level 1: (0, 1, s) for s in (0, 1),
        (1, 0, s - 1) for s in (1, 2) and (1, 1, 0) for s = 1, so the
        eigenvalue-1 part has dimension branches - 1 and type (1, 1)."""
        return _pairs_at_level(1, *self._spectrum)


class Ordinary(_QuasiHomogeneous):
    """An ordinary m-fold point: m pairwise transverse smooth branches."""

    _fields = ("multiplicity",)
    exponents = property(lambda self: (self.multiplicity, self.multiplicity))
    # the engine's passes over 2m values
    work = property(lambda self: 64 * self.multiplicity)

    def __init__(self, multiplicity: int):
        if multiplicity < 2:
            raise ValueError("ordinary point needs multiplicity >= 2")
        vars(self)["multiplicity"] = multiplicity


class Brieskorn(_QuasiHomogeneous):
    """The germ x^a + y^b at the origin."""

    _fields = ("a", "b")
    exponents = property(lambda self: (self.a, self.b))

    @property
    def work(self) -> int:
        """The engine's passes over 2 lcm(a, b) coefficients; each distinct
        spectrum value is an entry of every table built from the germ."""
        mu = self.milnor
        return mu // 2 + 32 * min(mu, 2 * lcm(self.a, self.b))

    def __init__(self, a: int, b: int):
        if a < 2 or b < 2:
            raise ValueError("Brieskorn exponents must both be >= 2")
        vars(self).update(a=a, b=b)


class _ExplicitFields(NamedTuple):
    milnor: int
    branches: int
    alexander: CyclotomicFactorization
    pairs: SpectralPairTable
    grf_dims: tuple[tuple[int, int], ...] | None = None


class Explicit(_ExplicitFields):
    """User-supplied local data for a germ without a built-in model.

    grf_dims, when present, lists (p, dim Gr_F^p) pairs of the Hodge
    filtration on the middle cohomology of the local Milnor fiber.  The
    pipeline reads these dimensions off the pair table (summing over q and
    alpha); validate checks supplied ones against it.
    """

    __slots__ = ()
    # alexander_alpha_marginal runs through 0 <= j < k for each order k
    work = property(lambda self: 4 * sum(self.alexander.factors))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.milnor < 1:
            raise ValueError("Milnor number must be positive")
        if self.branches < 1:
            raise ValueError("branch count must be positive")
        return self


LocalSingularity = Ordinary | Brieskorn | Explicit


def spectrum(s: LocalSingularity) -> tuple[Fraction, ...]:
    """Singularity spectrum of a built-in germ, as a sorted multiset in (0, 2):
    { i/a + j/b : 1 <= i <= a-1, 1 <= j <= b-1 } for the exponents (a, b)."""
    if isinstance(s, Explicit):
        raise ExplicitHasNoSpectrum("explicit germs carry tables, not a spectrum")
    den, numerators = s._spectrum
    return tuple(Fraction(k, den) for k in sorted(numerators)
                 for _ in range(numerators[k]))


def alexander_alpha_marginal(f: CyclotomicFactorization) -> dict[tuple[int, int], int]:
    """Eigenvalue multiset of a cyclotomic product, grouped by angle alpha
    and keyed, as SpectralPairTable.alpha_marginal, by alpha in lowest
    terms as (numerator, denominator): Phi(k) has the angles j/k with
    gcd(j, k) = 1, and (0, 1) for k = 1."""
    out: dict[tuple[int, int], int] = {}
    for k, m in f.factors.items():
        for j in range(k):
            if gcd(j, k) == 1:
                out[j, k] = out.get((j, k), 0) + m
    return out
