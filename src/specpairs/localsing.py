"""Local invariants of isolated plane-curve singularity germs.

Built-in models are the ordinary m-fold point (m concurrent smooth branches)
and the Brieskorn germ x^a + y^b, the Brieskorn-Pham germs with exponents
(m, m) and (a, b).  Both are quasi-homogeneous, so the local monodromy has
finite order and their pair table is read off the singularity spectrum
{i/a + j/b}, enumerated by the engine in ``milnor`` that also gives the
table at infinity.  Germs that are not quasi-homogeneous, and germs in
ambient dimension above curves, enter through the Explicit variant: a
user-supplied pair table, off which it reads every invariant it is not
given.  Every germ answers `milnor`, `branches`, `pairs` and `alexander`
itself, and `work`, its closed-form price in the work estimate of
``model.validate``.  `cyclotomic` and `spectrum` read the local Alexander
polynomial and the spectrum of every germ off its pair table.

A built-in germ computes its Milnor number and branch count in closed form
and its pair table from one enumeration of its spectrum, on first use, and
keeps them on the instance with the local Alexander polynomial read off the
table; every spec holding the same germ object shares these read-only
values, and they are freed with the germ.  An explicit germ keeps what it
reads off its pairs the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .laurent import CyclotomicFactorization, euler_phi
from .milnor import _pairs_at_level, brieskorn_pham_spectrum
from .pairs import SpectralPairTable


def cyclotomic(pairs: SpectralPairTable) -> CyclotomicFactorization:
    """The Alexander polynomial of the eigenvalues exp(2 pi i alpha) counted
    by a pair table, in one pass over its groups.  The eigenvalue multiset
    of a germ is Galois-stable, so the eigenvalues of order o, counted
    together, make up Phi(o) to the power count / phi(o)."""
    den, per_order = pairs._den, {}
    for group in pairs._groups.values():
        for k, c in group.items():
            order = den // gcd(k, den)
            per_order[order] = per_order.get(order, 0) + c
    return CyclotomicFactorization({o: c // euler_phi(o) for o, c in per_order.items()})


def frozen(self, name, *value):
    """__setattr__ and __delattr__ of a frozen value; cached_property
    writes straight into the instance dict, so its kept values still fill."""
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")


class _QuasiHomogeneous:
    """The invariants of the built-in germ x^a + y^b, (a, b) = `exponents`;
    its Milnor number, branch count and tables are made once per instance.
    A germ is a frozen value, shown by its constructor arguments `_fields`."""

    __setattr__ = __delattr__ = frozen
    __hash__ = lambda self: hash(self.exponents)

    def __eq__(self, other):
        return type(other) is type(self) and self.exponents == other.exponents

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    milnor = cached_property(lambda self: prod(a - 1 for a in self.exponents))
    branches = cached_property(lambda self: gcd(*self.exponents))

    @cached_property
    def pairs(self) -> SpectralPairTable:
        """The spectrum's pairs at level 1: (0, 1, s) for s in (0, 1),
        (1, 0, s - 1) for s in (1, 2) and (1, 1, 0) for s = 1, so the
        eigenvalue-1 part has dimension branches - 1 and type (1, 1)."""
        return _pairs_at_level(1, *brieskorn_pham_spectrum(self.exponents))

    alexander = cached_property(lambda self: cyclotomic(self.pairs))


class Ordinary(_QuasiHomogeneous):
    """An ordinary m-fold point: m pairwise transverse smooth branches."""

    _fields = ("multiplicity",)
    # the engine's passes over 2m values
    work = property(lambda self: 64 * self.multiplicity)

    def __init__(self, multiplicity: int):
        if multiplicity < 2:
            raise ValueError("ordinary point needs multiplicity >= 2")
        vars(self).update(multiplicity=multiplicity, exponents=(multiplicity,) * 2)


class Brieskorn(_QuasiHomogeneous):
    """The germ x^a + y^b at the origin."""

    _fields = ("a", "b")

    @property
    def work(self) -> int:
        """The engine's passes over 2 lcm(a, b) coefficients; each distinct
        spectrum value is an entry of every table built from the germ."""
        mu = self.milnor
        return mu // 2 + 32 * min(mu, 2 * lcm(self.a, self.b))

    def __init__(self, a: int, b: int):
        if a < 2 or b < 2:
            raise ValueError("Brieskorn exponents must both be >= 2")
        vars(self).update(a=a, b=b, exponents=(a, b))


class _ExplicitFields(NamedTuple):
    pairs: SpectralPairTable
    milnor: int | None = None
    branches: int | None = None
    alexander: CyclotomicFactorization | None = None
    grf_dims: tuple[tuple[int, int], ...] | None = None


def _given_or(index: int, read_off) -> cached_property:
    """An explicit germ's field at index as given, or read_off(pairs) when absent."""
    return cached_property(
        lambda self: read_off(self.pairs) if self[index] is None else self[index]
    )


class Explicit(_ExplicitFields):
    """User-supplied local data for a germ without a built-in model: its
    pair table, and optionally invariants that validate checks against it.

    Its fields hold what was given.  The germ answers `milnor`, `branches`
    and `alexander` as given, or else as read off the pairs: the pair mass,
    the eigenvalue-1 mass + 1 and the cyclotomic product of the angle
    counts.  grf_dims, when present, lists (p, dim Gr_F^p) pairs of the
    Hodge filtration on the middle cohomology of the local Milnor fiber,
    which the pipeline reads off the pair table.
    """

    __setattr__ = __delattr__ = frozen
    # _replace builds with _make: both go through __new__ and its checks
    _make = classmethod(lambda cls, fields: cls(*fields))
    milnor = _given_or(1, SpectralPairTable.total_dim)
    branches = _given_or(2, lambda pairs: pairs.unipotent_dim() + 1)
    alexander = _given_or(3, cyclotomic)

    @property
    def work(self) -> int:
        """4 units per unit of each distinct lowest-terms order of the
        table's angles, which bounds the totients (trial division) that
        cyclotomic and validate take once per order."""
        den, counts = self.pairs.angle_counts()
        return 4 * sum({den // gcd(k, den) for k in counts})

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.milnor < 1:
            raise ValueError("Milnor number (if not given, the pair mass) must be > 0")
        if self.branches < 1:
            raise ValueError("branch count must be positive")
        return self


LocalSingularity = Ordinary | Brieskorn | Explicit


def spectrum(s: LocalSingularity) -> tuple[Fraction, ...]:
    """The spectrum of a germ, sorted: p + alpha per pair (p, q, alpha) of its
    table (inverting milnor._pairs_at_level), {i/a + j/b} for x^a + y^b."""
    den, groups = s.pairs._den, s.pairs._groups
    numerators = sorted(p * den + k for (p, _), group in groups.items()
                        for k, c in group.items() for _ in range(c))
    return tuple(Fraction(k, den) for k in numerators)
