"""Local invariants of isolated singularity germs, by germ kind.

The built-in model is the Brieskorn-Pham germ x^a + y^b, quasi-homogeneous,
so its local monodromy has finite order and its pair table is read off the
singularity spectrum {i/a + j/b}, enumerated by the engine in ``milnor``
that also gives the table at infinity; `Ordinary`, the ordinary m-fold
point, is the germ with exponents (m, m) as a document kind of its own.
Germs that are not quasi-homogeneous, and germs in ambient dimension above
curves, enter through the Explicit variant: a user-supplied pair table, off
which it reads every invariant it is not given.  Every germ answers
`milnor`, `branches`, `pairs` and `alexander` itself, and `work`, its
closed-form price in the work estimate of ``model.validate``.  `cyclotomic`
and `spectrum` read the local Alexander polynomial and the spectrum of
every germ off its pair table.

Each kind is a class in `KINDS`, all that ``model`` reads: `kind`, the
`entry_keys` of an entry, `from_entry`, `to_entry`, `admits(n)` (a germ in
C^(n+1)?) and `check(n)`, the (code, message) of each own rule it breaks.

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

from .laurent import (CyclotomicFactorization, euler_phi, parse_integer,
                      parse_keyed, parse_row)
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


class Brieskorn:
    """The germ x^a + y^b at the origin, (a, b) = `exponents`; its Milnor
    number, branch count and tables are made once per instance.  A germ is
    a frozen value, shown by its constructor arguments `_fields`."""

    _fields = ("a", "b")
    kind, entry_keys = "brieskorn", frozenset({"exponents"})
    __setattr__ = __delattr__ = frozen
    __hash__ = lambda self: hash(self.exponents)

    def __init__(self, a: int, b: int):
        if a < 2 or b < 2:
            raise ValueError("Brieskorn exponents must both be >= 2")
        vars(self).update(a=a, b=b, exponents=(a, b))

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

    # the engine's passes over 2 lcm(a, b) coefficients, or over the spectrum
    # when it is shorter: each distinct value is an entry of every table
    work = property(lambda self: 32 * min(self.milnor, 2 * lcm(*self.exponents)))

    @classmethod
    def from_entry(cls, entry: dict) -> Brieskorn:
        return cls(*map(parse_integer, parse_row(entry["exponents"], 2)))

    to_entry = lambda self: {"exponents": list(self.exponents)}
    admits = lambda self, n: n == len(self.exponents) - 1  # a germ in C^(n+1)
    check = lambda self, n: ()  # no rule beyond its constructor's


class Ordinary(Brieskorn):
    """An ordinary m-fold point: the germ x^m + y^m, m transverse branches."""

    _fields = ("multiplicity",)
    kind, entry_keys = "ordinary", frozenset({"multiplicity"})
    multiplicity = property(lambda self: self.a)

    @classmethod
    def from_entry(cls, entry: dict) -> Ordinary:
        return cls(parse_integer(entry["multiplicity"]))

    to_entry = lambda self: {"multiplicity": self.multiplicity}

    def __init__(self, multiplicity: int):
        if multiplicity < 2:
            raise ValueError("ordinary point needs multiplicity >= 2")
        super().__init__(multiplicity, multiplicity)


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


# An explicit entry's optional keys in reading order: field, key, reader, writer.
_GIVEN = (
    ("grf_dims", "grF_dims",
     lambda rows: None if rows is None else parse_keyed(rows, 2, "filtration level"),
     lambda rows: [list(row) for row in rows]),
    ("milnor", "milnor_number", parse_integer, int),
    ("branches", "branches", parse_integer, int),
    ("alexander", "alexander", CyclotomicFactorization.from_dict,
     CyclotomicFactorization.to_dict),
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

    kind = "explicit"
    entry_keys = frozenset({"spectral_pairs", *(key for _, key, _, _ in _GIVEN)})
    admits = lambda self, n: True  # a pair table at any level n
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

    @classmethod
    def from_entry(cls, entry: dict) -> Explicit:
        given = {name: read(entry[key])
                 for name, key, read, _ in _GIVEN if key in entry}
        return cls(SpectralPairTable.from_rows(entry["spectral_pairs"]), **given)

    def to_entry(self) -> dict:
        """The pairs and the fields as given, none read off the pairs."""
        given = self._asdict()
        out = {key: write(given[name]) for name, key, _, write in _GIVEN
               if given[name] is not None}
        return {**out, "spectral_pairs": self.pairs.to_rows()}

    def check(self, n: int) -> list[tuple[str, str]]:
        """Its explicit_inconsistent rules: each given field must match the pairs."""
        pairs, mu, _, given_alexander, grf = self  # the fields as given
        wrong = []
        if pairs.total_dim() != self.milnor:
            wrong.append("the pair table mass differs from the Milnor number")
        # Steenbrink's mixed Hodge structure on H^n(F) has h^{p,q} = 0 unless
        # 0 <= p, q <= n; the rows are sorted, so the first outside is named
        if any(not (0 <= p <= n and 0 <= q <= n) for p, q in pairs._groups):
            p, q, alpha, _ = next(cell for cell in pairs._cells()
                                  if not (0 <= cell[0] <= n and 0 <= cell[1] <= n))
            wrong.append(f"spectral pair ({p}, {q}, {alpha}) lies outside "
                         f"0 <= p, q <= {n}")
        if n == 1 and pairs.unipotent_dim() != self.branches - 1:
            wrong.append("eigenvalue-1 mass must equal branches - 1 "
                         f"(branches = {self.branches}) for curve germs")
        if not pairs.symmetries(n)[0]:
            wrong.append("pair table is not conjugation-symmetric")
        if not pairs.nonunipotent().symmetries(n)[1]:
            wrong.append(f"eigenvalue != 1 part is not self-dual at level {n}")
        # the eigenvalues of order o make up Phi(o)^m only if each carries m;
        # only a given polynomial can differ from the one the pairs give
        den, counts = pairs.angle_counts()
        alexander = self.alexander
        if given_alexander is not None and alexander != cyclotomic(pairs) or any(
            c != alexander.multiplicity(den // gcd(k, den)) for k, c in counts.items()
        ):
            wrong.append("eigenvalues of the local Alexander polynomial differ "
                         "from the eigenvalue marginal of the pair table")
        marginal = sorted(pairs.hodge_filtration_marginal().items())
        if grf is not None and sorted(r for r in grf if r[1]) != marginal:
            wrong.append(f"grF_dims {[list(r) for r in grf]} differ from "
                         "the Hodge filtration marginal of the pair table")
        # a derived Milnor number, the pair mass, may have too many digits to print
        where = "explicit singularity" + ("" if mu is None else f" (mu={mu})")
        return [("explicit_inconsistent", f"{where}: {message}") for message in wrong]


LocalSingularity = Brieskorn | Explicit
# Every germ kind a document may name, by its kind name.
KINDS = {germ.kind: germ for germ in (Ordinary, Brieskorn, Explicit)}


def spectrum(s: LocalSingularity) -> tuple[Fraction, ...]:
    """The spectrum of a germ, sorted: p + alpha per pair (p, q, alpha) of its
    table (inverting milnor._pairs_at_level), {i/a + j/b} for x^a + y^b."""
    den, groups = s.pairs._den, s.pairs._groups
    numerators = sorted(p * den + k for (p, _), group in groups.items()
                        for k, c in group.items() for _ in range(c))
    return tuple(Fraction(k, den) for k in numerators)
