"""Spectral-pair tables: equivariant mixed Hodge numbers h^{p,q}_alpha.

A table is a finite map (p, q, alpha) -> positive count, where (p, q) is the
Hodge type, alpha is an exact rational in [0, 1) encoding the monodromy
eigenvalue exp(2*pi*i*alpha), and the count is the dimension of the
corresponding eigenspace.  Zero counts are never stored.

Each angle is stored as an integer numerator k over one denominator per
table (alpha = k/den), so the table algebra is integer arithmetic.  Fraction
angles come in only where a document's rows are read (``from_rows``); a
table is read out through its rows, which write each angle as lowest-terms
text.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .laurent import parse_array, parse_fraction, parse_integer, parse_row


def rescale(entries: dict, factor: int) -> dict:
    """Integer-keyed entries {(p, q, k): v} moved to a denominator `factor`
    times larger; the same dict when factor is 1."""
    if factor == 1:
        return entries
    return {(p, q, k * factor): v for (p, q, k), v in entries.items()}


class SpectralPairTable:
    """An immutable multiset of spectral pairs with exact eigenvalue angles."""

    # _unipotent_dim is filled by the first call of unipotent_dim; no code
    # changes _entries after __init__, so the kept value stays the count
    __slots__ = ("_den", "_entries", "_unipotent_dim")

    def __init__(self, den: int, entries: dict[tuple[int, int, int], int]):
        """Positive counts keyed by (p, q, k) with 0 <= k < den, standing for
        the angle k/den.  Takes ownership of `entries` and checks nothing;
        from_rows is the reader that checks."""
        self._den = den
        self._entries = entries

    def _over(self, den: int) -> dict[tuple[int, int, int], int]:
        """The entries keyed by numerators over den, a multiple of _den."""
        return rescale(self._entries, den // self._den)

    def __add__(self, other: SpectralPairTable) -> SpectralPairTable:
        return table_sum(((self, 1), (other, 1)))

    def conjugate(self) -> SpectralPairTable:
        """Complex conjugation: (p, q, alpha) -> (q, p, (1 - alpha) mod 1)."""
        den = self._den
        return SpectralPairTable(
            den, {(q, p, -k % den): c for (p, q, k), c in self._entries.items()}
        )

    def level_dual(self, n: int) -> SpectralPairTable:
        """Duality at level n: (p, q, alpha) -> (n - p, n - q, (1 - alpha) mod 1)."""
        den = self._den
        return SpectralPairTable(
            den,
            {(n - p, n - q, -k % den): c for (p, q, k), c in self._entries.items()},
        )

    def nonunipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue different from 1 (alpha > 0)."""
        return SpectralPairTable(
            self._den, {key: c for key, c in self._entries.items() if key[2]}
        )

    def unipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue 1 (alpha = 0)."""
        return SpectralPairTable(
            1, {key: c for key, c in self._entries.items() if not key[2]}
        )

    def total_dim(self) -> int:
        return sum(self._entries.values())

    def unipotent_dim(self) -> int:
        """Total count at eigenvalue 1 (alpha = 0), kept after the first call."""
        try:
            return self._unipotent_dim
        except AttributeError:
            entries = self._entries
            self._unipotent_dim = sum(c for (_, _, k), c in entries.items() if not k)
            return self._unipotent_dim

    def alpha_marginal(self) -> dict[tuple[int, int], int]:
        """Total count per eigenvalue angle, keyed by the angle in lowest
        terms as (numerator, denominator), (0, 1) for 0."""
        den, out = self._den, {}
        for (_, _, k), c in self._entries.items():
            g = gcd(k, den)
            key = (k // g, den // g)
            out[key] = out.get(key, 0) + c
        return out

    def hodge_filtration_marginal(self) -> dict[int, int]:
        """Total count per Hodge filtration level p, summed over q and alpha."""
        out: dict[int, int] = {}
        for (p, _, _), c in self._entries.items():
            out[p] = out.get(p, 0) + c
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectralPairTable):
            return NotImplemented
        if self._den == other._den:
            return self._entries == other._entries
        if len(self._entries) != len(other._entries):
            return False
        den = lcm(self._den, other._den)
        return self._over(den) == other._over(den)

    def __hash__(self) -> int:
        # Reduce to the least common denominator, which equal tables share.
        g = gcd(self._den, *(k for _, _, k in self._entries))
        return hash(
            (
                self._den // g,
                frozenset(
                    ((p, q, k // g), c) for (p, q, k), c in self._entries.items()
                ),
            )
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{q},{alpha}): {c}" for p, q, alpha, c in self._cells())
        return f"SpectralPairTable({{{inner}}})"

    def _cells(self) -> Iterator[tuple[int, int, str, int]]:
        """The rows of every output, (p, q, "a/b", count) in key order, with
        the angle in lowest terms ("0/1" for 0)."""
        den, entries = self._den, self._entries
        for key in sorted(entries):
            p, q, k = key
            g = gcd(k, den)
            yield p, q, f"{k // g}/{den // g}", entries[key]

    def to_rows(self) -> list[list]:
        """JSON-ready rows [p, q, "a/b", count], sorted lexicographically."""
        return [list(cell) for cell in self._cells()]

    @classmethod
    def from_rows(cls, rows: list) -> SpectralPairTable:
        """Read rows [p, q, alpha, count] of a document: the rows and each row
        must be arrays, p, q and count integers, alpha an exact rational in
        [0, 1) and no count negative; a key given twice is an error, not a
        sum, and zero counts are dropped."""
        data: dict[tuple[int, int, Fraction], int] = {}
        for p, q, alpha, count in (parse_row(row, 4) for row in parse_array(rows)):
            key = p, q, alpha = (
                parse_integer(p), parse_integer(q), parse_fraction(alpha)
            )
            if not 0 <= alpha < 1:
                raise ValueError(f"eigenvalue angle must lie in [0, 1), got {alpha}")
            if key in data:
                raise ValueError(f"spectral pair ({p}, {q}, {alpha}) is given twice")
            data[key] = parse_integer(count)
        for key, count in data.items():
            if count < 0:
                raise ValueError(f"negative count {count} at {key}")
        data = {key: c for key, c in data.items() if c}
        den = lcm(*(alpha.denominator for _, _, alpha in data))
        return cls(den, {
            (p, q, alpha.numerator * (den // alpha.denominator)): c
            for (p, q, alpha), c in data.items()
        })


def table_sum(
    terms: Iterable[tuple[SpectralPairTable, int]], nonunipotent: bool = False
) -> SpectralPairTable:
    """The sum of count * table over (table, count) terms with positive
    counts, made in one pass over their entries over the lcm of their
    denominators.  With nonunipotent, only the entries with eigenvalue
    different from 1 (alpha > 0) are summed."""
    terms = list(terms)
    den = lcm(*(table._den for table, _ in terms))
    data: dict[tuple[int, int, int], int] = {}
    get = data.get
    for table, count in terms:
        step = den // table._den
        for (p, q, k), c in table._entries.items():
            if k or not nonunipotent:
                key = (p, q, k * step)
                data[key] = get(key, 0) + c * count
    return SpectralPairTable(den, data)
