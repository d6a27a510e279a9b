"""Alexander-type polynomials in factored form.

Every Alexander-type polynomial this package handles (local monodromy
polynomials, the divisibility bounds, delta_M and delta_U) is a product of
cyclotomic polynomials up to a unit of Q[t, t^-1].  ``CyclotomicFactorization``
stores only the integer multiplicities of the cyclotomic factors, so
multiplication, exact division and divisibility are integer arithmetic and no
polynomial is ever multiplied out; a document's unit and power of t are
checked on reading and dropped.
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd
from typing import Mapping


class NotDivisible(ArithmeticError):
    """An exact quotient of factorizations does not exist."""


@cache
def euler_phi(k: int) -> int:
    """Euler's totient of a positive integer."""
    if k < 1:
        raise ValueError(f"euler_phi requires k >= 1, got {k}")
    result = k
    m, p = k, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def divisors(k: int) -> list[int]:
    """All positive divisors of k, sorted."""
    small, large = [], []
    i = 1
    while i * i <= k:
        if k % i == 0:
            small.append(i)
            if i != k // i:
                large.append(k // i)
        i += 1
    return small + large[::-1]


class CyclotomicFactorization:
    """product over k of Phi_k^multiplicity, where Phi_k is the k-th
    cyclotomic polynomial: an Alexander polynomial up to units.

    Every value is a polynomial: multiplicities are never negative (the
    divisibility bound at infinity, written as a quotient, included).
    Instances are immutable; zero multiplicities are never stored.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[int, int] | None = None):
        """Check and store `factors` as {order: multiplicity}; zero
        multiplicities are dropped.  from_dict is the reader that checks a
        document's types."""
        data: dict[int, int] = {}
        for k, m in (factors or {}).items():
            if k < 1:
                raise ValueError(f"cyclotomic order must be >= 1, got {k}")
            if m < 0:
                raise ValueError(
                    f"negative multiplicities are not allowed, as at Phi({k})"
                )
            if m:
                data[k] = m
        self._factors = data

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def multiplicity(self, k: int) -> int:
        return self._factors.get(k, 0)

    def orders(self) -> list[int]:
        return sorted(self._factors)

    @property
    def degree(self) -> int:
        """Sum of multiplicity(k) * phi(k), the degree of the polynomial."""
        return sum(m * euler_phi(k) for k, m in self._factors.items())

    def __mul__(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        data = dict(self._factors)
        for k, m in other._factors.items():
            data[k] = data.get(k, 0) + m
        return CyclotomicFactorization(data)

    def __pow__(self, n: int) -> CyclotomicFactorization:
        if n < 0:
            raise ValueError("negative powers are not defined; use divide")
        return CyclotomicFactorization({k: m * n for k, m in self._factors.items()})

    def divide(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        """Exact quotient self/other; raises NotDivisible on a negative
        exponent, naming the orders where it falls short (and no
        multiplicity, which may have too many digits to print)."""
        data = dict(self._factors)
        for k, m in other._factors.items():
            data[k] = data.get(k, 0) - m
        short = [f"Phi({k})" for k, m in sorted(data.items()) if m < 0]
        if short:
            raise NotDivisible(f"multiplicity too high at {', '.join(short)}")
        return CyclotomicFactorization(data)

    def gcd(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        """Greatest common divisor, the least multiplicity at each order:
        self divides other exactly when it equals self."""
        return CyclotomicFactorization(
            {k: min(m, other.multiplicity(k)) for k, m in self._factors.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicFactorization):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(frozenset(self._factors.items()))

    def __repr__(self) -> str:
        return f"CyclotomicFactorization({dict(sorted(self._factors.items()))})"

    def __str__(self) -> str:
        parts = [f"Phi({k})" if m == 1 else f"Phi({k})^{m}"
                 for k, m in sorted(self._factors.items())]
        return " * ".join(parts) or "1"

    def to_dict(self) -> dict:
        """JSON-ready form: factors sorted by order, unit 1 and t^0."""
        return {
            "unit": "1/1",
            "t_power": 0,
            "factors": [[k, self._factors[k]] for k in self.orders()],
        }

    @classmethod
    def from_dict(cls, data) -> CyclotomicFactorization:
        """Read an Alexander polynomial of a document (a germ's `alexander`,
        `delta_U`) strictly: it must be an object, an order given twice is an
        error, not an overwrite, and `"formal": true`, the label of the bound
        at infinity in a report, is refused, since that bound is none.  The
        `unit` (a nonzero exact rational) and `t_power` (an integer) are
        checked and dropped."""
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {data!r}")
        unit, _ = parse_fraction(data.get("unit", 1))
        parse_integer(data.get("t_power", 0))
        factors: dict[int, int] = {}
        for k, m in (parse_row(row, 2) for row in parse_array(data.get("factors", []))):
            k = parse_integer(k)
            if k in factors:
                raise ValueError(f"cyclotomic order {k} is given twice")
            factors[k] = parse_integer(m)
        if parse_flag(data.get("formal", False)):
            raise ValueError(
                "an Alexander polynomial is not a formal bound; drop the formal flag"
            )
        if not unit:
            raise ValueError("the unit of a factorization must be nonzero")
        return cls(factors)


def parse_integer(value) -> int:
    """A JSON integer as is; bool, float and string values are rejected, not
    coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def parse_flag(value) -> bool:
    """A JSON boolean as is; any other value is rejected, not coerced."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def parse_array(value) -> list:
    """A JSON array as is; an object or a scalar is rejected, not iterated."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    return value


def parse_row(value, arity: int) -> list:
    """A JSON array of `arity` entries; anything else is rejected, not unpacked."""
    row = parse_array(value)
    if len(row) != arity:
        raise ValueError(f"expected an array of {arity} entries, got {len(row)}")
    return row


def parse_keyed(rows, width: int, name: str) -> tuple[tuple[int, ...], ...]:
    """Rows of `width` integers (hD, grF_dims), read strictly: all but the
    last entry are the row's key, and a key given twice is an error, not an
    overwrite."""
    out: dict[tuple[int, ...], int] = {}
    for row in parse_array(rows):
        *key, value = map(parse_integer, parse_row(row, width))
        if (key := tuple(key)) in out:
            raise ValueError(f"{name} {key[0] if width == 2 else key} is given twice")
        out[key] = value
    return tuple((*key, value) for key, value in out.items())


_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")  # [0-9]: ASCII digits only


def parse_fraction(value) -> tuple[int, int]:
    """An exact rational of a document as its lowest-terms pair (a, b),
    b > 0: a JSON integer, or a string "a/b" of ASCII digits with an
    optional leading minus and a nonzero b.  A bool, a float and any other
    text are rejected, not coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        a, b = int(match[1]), int(match[2])
        if b:
            g = gcd(a, b)
            return a // g, b // g
    raise ValueError(f"cannot interpret {value!r} as an exact rational")
