"""Spectral-pair tables: equivariant mixed Hodge numbers h^{p,q}_alpha.

A table is a finite map (p, q, alpha) -> positive count, where (p, q) is the
Hodge type, alpha is an exact rational in [0, 1) encoding the monodromy
eigenvalue exp(2*pi*i*alpha), and the count is the dimension of the
corresponding eigenspace.  Zero counts are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

PairKey = tuple[int, int, Fraction]


def _normalize_key(key) -> PairKey:
    p, q, alpha = key
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ValueError(f"eigenvalue angle must lie in [0, 1), got {alpha}")
    return (int(p), int(q), alpha)


class SpectralPairTable:
    """An immutable multiset of spectral pairs with exact eigenvalue angles."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[PairKey, int] | None = None):
        data: dict[PairKey, int] = {}
        for key, count in (entries or {}).items():
            count = int(count)
            if count < 0:
                raise ValueError(f"negative count {count} at {key}")
            if count:
                key = _normalize_key(key)
                data[key] = data.get(key, 0) + count
        self._entries = data

    def get(self, key) -> int:
        return self._entries.get(_normalize_key(key), 0)

    def items(self) -> list[tuple[PairKey, int]]:
        return sorted(self._entries.items())

    def keys(self) -> list[PairKey]:
        return sorted(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def __add__(self, other: SpectralPairTable) -> SpectralPairTable:
        data = dict(self._entries)
        for key, count in other._entries.items():
            data[key] = data.get(key, 0) + count
        return SpectralPairTable(data)

    def __mul__(self, n: int) -> SpectralPairTable:
        if n < 0:
            raise ValueError("table counts cannot be scaled by a negative integer")
        return SpectralPairTable({k: n * c for k, c in self._entries.items()})

    __rmul__ = __mul__

    def conjugate(self) -> SpectralPairTable:
        """Complex conjugation: (p, q, alpha) -> (q, p, (1 - alpha) mod 1)."""
        return SpectralPairTable(
            {(q, p, (1 - alpha) % 1): c for (p, q, alpha), c in self._entries.items()}
        )

    def level_dual(self, n: int) -> SpectralPairTable:
        """Duality at level n: (p, q, alpha) -> (n - p, n - q, (1 - alpha) mod 1)."""
        return SpectralPairTable(
            {
                (n - p, n - q, (1 - alpha) % 1): c
                for (p, q, alpha), c in self._entries.items()
            }
        )

    def restrict(self, predicate) -> SpectralPairTable:
        return SpectralPairTable(
            {k: c for k, c in self._entries.items() if predicate(k)}
        )

    def nonunipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue different from 1 (alpha > 0)."""
        return self.restrict(lambda k: k[2] > 0)

    def unipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue 1 (alpha = 0)."""
        return self.restrict(lambda k: k[2] == 0)

    def total_dim(self) -> int:
        return sum(self._entries.values())

    def alpha_marginal(self) -> dict[Fraction, int]:
        """Total count per eigenvalue angle."""
        out: dict[Fraction, int] = {}
        for (_, _, alpha), c in self._entries.items():
            out[alpha] = out.get(alpha, 0) + c
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
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({p},{q},{alpha}): {c}" for (p, q, alpha), c in self.items()
        )
        return f"SpectralPairTable({{{inner}}})"

    def to_rows(self) -> list[list]:
        """JSON-ready rows [p, q, "a/b", count], sorted lexicographically."""
        return [
            [p, q, f"{alpha.numerator}/{alpha.denominator}", c]
            for (p, q, alpha), c in self.items()
        ]

    @classmethod
    def from_rows(cls, rows: Iterable) -> SpectralPairTable:
        data: dict[PairKey, int] = {}
        for p, q, alpha, count in rows:
            key = _normalize_key((p, q, Fraction(alpha)))
            data[key] = data.get(key, 0) + int(count)
        return cls(data)

