"""Spectral-pair tables: equivariant mixed Hodge numbers h^{p,q}_alpha.

A table is a finite map (p, q, alpha) -> positive count, where (p, q) is the
Hodge type, alpha is an exact rational in [0, 1) encoding the monodromy
eigenvalue exp(2*pi*i*alpha), and the count is the dimension of the
corresponding eigenspace.  Zero counts are never stored.

Each angle is stored as an integer numerator k over one denominator per
table (alpha = k/den), and the entries are grouped by Hodge type,
{(p, q): {k: count}} with no empty group, so every pass over a table looks
up its few Hodge types once and then works on integer keys.  A document's
rows are read by ``from_rows``, each angle as a lowest-terms pair of ints;
a table is read out through its rows, which write each angle as text.

``_GroupedTable`` holds the groups, rows and equality of this table and of
``bounds.BoundTable``.  Neither constructor checks its groups: producers
store no empty group and no zero outside a bound table's exact keys.

No code changes a group after its table is built, since tables may share
groups: ``nonunipotent`` keeps each group without an eigenvalue-1 entry,
``rescale`` by 1 returns its input, and the weight n - 1 table of a
rational homology manifold shifts the groups at infinity.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator

from .laurent import parse_array, parse_fraction, parse_integer, parse_row


def grouped(entries: dict) -> dict:
    """Flat entries {(p, q, k): v} grouped by Hodge type, {(p, q): {k: v}}."""
    groups: dict = {}
    for (p, q, k), v in entries.items():
        group = groups.get((p, q))
        if group is None:
            groups[p, q] = {k: v}
        else:
            group[k] = v
    return groups


def rescale(groups: dict, factor: int) -> dict:
    """Groups {(p, q): {k: v}} moved to a denominator `factor` times
    larger; the same dict when factor is 1."""
    if factor == 1:
        return groups
    return {
        pq: {k * factor: v for k, v in group.items()} for pq, group in groups.items()
    }


class _AngleTexts(dict):
    """The lowest-terms texts "a/b" of angles k/den by k, each made on its
    first lookup (a den may run to millions)."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        self.den = den

    def __missing__(self, k: int) -> str:
        g = gcd(k, self.den)
        text = self[k] = f"{k // g}/{self.den // g}"
        return text


@lru_cache(maxsize=8)
def _angle_texts(den: int) -> _AngleTexts:
    """The angle texts over den, kept for the last few denominators."""
    return _AngleTexts(den)


class _GroupedTable:
    """Values {(p, q): {k: value}} for the angle k/den, grouped by Hodge
    type: the core of pair and bound tables."""

    __slots__ = ("_den", "_groups")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        den = lcm(self._den, other._den)
        return self._over(den) == other._over(den)

    def _over(self, den: int) -> dict:
        """What equality compares: the groups over den, a multiple of _den."""
        return rescale(self._groups, den // self._den)

    def _rows(self) -> list[tuple[int, int, list[str], list[int]]]:
        """The rows of the text output and of to_rows by Hodge type in key
        order, each type as its columns (p, q, ["a/b", ...], [count, ...])
        with the angles in order and in lowest terms ("0/1" for 0)."""
        texts, groups, out = _angle_texts(self._den), self._groups, []
        for p, q in sorted(groups):
            group = groups[p, q]
            keys = sorted(group)
            out.append((p, q, list(map(texts.__getitem__, keys)),
                        list(map(group.__getitem__, keys))))
        return out

    def _cells(self) -> Iterator[tuple]:
        """The rows of to_rows, (p, q, *cell) per cell of _rows, in key order."""
        for p, q, *columns in self._rows():
            for cell in zip(*columns):
                yield p, q, *cell

    def to_rows(self) -> list[list]:
        """JSON-ready rows [p, q, "a/b", value, ...], sorted lexicographically."""
        return [list(cell) for cell in self._cells()]


class SpectralPairTable(_GroupedTable):
    """An immutable multiset of spectral pairs with exact eigenvalue angles."""

    __slots__ = ()

    def __init__(self, den: int, groups: dict[tuple[int, int], dict[int, int]]):
        """Positive counts {(p, q): {k: count}} with 0 <= k < den, standing
        for the angle k/den, and no empty group.  Takes ownership of
        `groups` and checks nothing; from_rows is the reader that checks."""
        self._den, self._groups = den, groups

    def __add__(self, other: SpectralPairTable) -> SpectralPairTable:
        return table_sum(((self, 1), (other, 1)))

    def conjugate(self) -> SpectralPairTable:
        """Complex conjugation: (p, q, alpha) -> (q, p, (1 - alpha) mod 1)."""
        return self._mirror(lambda p, q: (q, p))

    def level_dual(self, n: int) -> SpectralPairTable:
        """Duality at level n: (p, q, alpha) -> (n - p, n - q, (1 - alpha) mod 1)."""
        return self._mirror(lambda p, q: (n - p, n - q))

    def _mirror(self, hodge_type) -> SpectralPairTable:
        """(p, q, alpha) -> (*hodge_type(p, q), (1 - alpha) mod 1)."""
        den = self._den
        return SpectralPairTable(den, {
            hodge_type(*pq): {-k % den: c for k, c in group.items()}
            for pq, group in self._groups.items()
        })

    def symmetries(self, n: int) -> tuple[bool, bool]:
        """(self == self.conjugate(), self == self.level_dual(n)) in one
        pass: both maps are involutions and no count is zero, so each holds
        when every entry's image carries the same count.  At weight
        p + q = n both maps send (p, q, alpha) to (q, p, 1 - alpha), so an
        entry there has one image, looked up once, and a mismatch fails both."""
        den, groups = self._den, self._groups
        conjugate = dual = True
        for (p, q), group in groups.items():
            mirror = groups.get((q, p), {}).get
            if p + q == n:
                for k, c in group.items():
                    if mirror(-k % den) != c:
                        return False, False
                continue
            image = groups.get((n - p, n - q), {}).get
            for k, c in group.items():
                k = -k % den
                if mirror(k) != c:
                    conjugate = False
                if image(k) != c:
                    dual = False
        return conjugate, dual

    def nonunipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue different from 1 (alpha > 0)."""
        groups = {}
        for pq, group in self._groups.items():
            if 0 in group:
                group = {k: c for k, c in group.items() if k}
            if group:
                groups[pq] = group
        return SpectralPairTable(self._den, groups)

    def unipotent(self) -> SpectralPairTable:
        """Entries with eigenvalue 1 (alpha = 0)."""
        return SpectralPairTable(
            1, {pq: {0: group[0]} for pq, group in self._groups.items() if 0 in group}
        )

    def total_dim(self) -> int:
        return sum(sum(group.values()) for group in self._groups.values())

    def unipotent_dim(self) -> int:
        """Total count at eigenvalue 1 (alpha = 0)."""
        return sum(group.get(0, 0) for group in self._groups.values())

    def angle_counts(self) -> tuple[int, dict[int, int]]:
        """(den, {k: total count at the angle k/den}), summed over (p, q)."""
        by_k: dict[int, int] = {}
        for group in self._groups.values():
            for k, c in group.items():
                by_k[k] = by_k.get(k, 0) + c
        return self._den, by_k

    def hodge_filtration_marginal(self) -> dict[int, int]:
        """Total count per Hodge filtration level p, summed over q and alpha."""
        out: dict[int, int] = {}
        for (p, _), group in self._groups.items():
            out[p] = out.get(p, 0) + sum(group.values())
        return out

    def __hash__(self) -> int:
        # Reduce to the least common denominator, which equal tables share.
        groups = self._groups
        g = gcd(self._den, *(k for group in groups.values() for k in group))
        return hash((self._den // g, frozenset(
            (pq, frozenset((k // g, c) for k, c in group.items()))
            for pq, group in groups.items()
        )))

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{q},{alpha}): {c}" for p, q, alpha, c in self._cells())
        return f"SpectralPairTable({{{inner}}})"

    @classmethod
    def from_rows(cls, rows: list) -> SpectralPairTable:
        """Read rows [p, q, alpha, count] of a document: the rows and each row
        must be arrays, p, q and count integers, alpha an exact rational in
        [0, 1) and no count negative; a key given twice is an error, not a
        sum, and zero counts are dropped."""
        def text(a, b):  # a lowest-terms angle: "a/b", or "a" when b is 1
            return f"{a}/{b}" if b > 1 else f"{a}"
        # keyed by the lowest-terms angle as two ints, which hash faster
        data: dict[tuple[int, int, int, int], int] = {}
        for p, q, alpha, count in (parse_row(row, 4) for row in parse_array(rows)):
            p, q, (a, b) = parse_integer(p), parse_integer(q), parse_fraction(alpha)
            key = p, q, a, b
            if not 0 <= a < b:
                raise ValueError(
                    f"eigenvalue angle must lie in [0, 1), got {text(a, b)}")
            if key in data:
                raise ValueError(
                    f"spectral pair ({p}, {q}, {text(a, b)}) is given twice")
            data[key] = parse_integer(count)
        for (p, q, a, b), count in data.items():
            if count < 0:
                raise ValueError(f"negative count {count} at ({p}, {q}, {text(a, b)})")
        data = {key: c for key, c in data.items() if c}
        den = lcm(*(b for _, _, _, b in data))
        return cls(den, grouped(
            {(p, q, a * (den // b)): c for (p, q, a, b), c in data.items()}
        ))


def table_sum(terms: Iterable[tuple[SpectralPairTable, int]]) -> SpectralPairTable:
    """The sum of count * table over (table, count) terms with positive
    counts, made in one pass over their entries over the lcm of their
    denominators."""
    terms = list(terms)
    den = lcm(*(table._den for table, _ in terms))
    groups: dict[tuple[int, int], dict[int, int]] = {}
    for table, count in terms:
        step = den // table._den
        for pq, group in table._groups.items():
            into = groups.get(pq)
            if into is None:
                into = groups[pq] = {}
            get = into.get
            for k, c in group.items():
                k *= step
                into[k] = get(k, 0) + c * count
    return SpectralPairTable(den, groups)
