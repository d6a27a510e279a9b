"""Alexander-type polynomials in factored form.

Every Alexander-type polynomial this package handles (local monodromy
polynomials, the divisibility bounds, delta_M and delta_U) is a product of
cyclotomic polynomials up to a unit of Q[t, t^-1].  ``CyclotomicFactorization``
stores it as a rational unit, a power of t and integer multiplicities of
cyclotomic polynomials, so multiplication, exact division and divisibility
are integer arithmetic on the multiplicities and no polynomial is ever
multiplied out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping

Rational = int | Fraction
_ONE = Fraction(1)  # the unit of every factorization built without one


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
    """unit * t^t_power * product over k of Phi_k^multiplicity, where Phi_k is
    the k-th cyclotomic polynomial.

    Every value is a polynomial: multiplicities are never negative (the
    divisibility bound at infinity, written as a quotient, included).
    Instances are immutable; zero multiplicities are never stored.
    """

    # _degree is filled by the first read of degree; no code changes
    # _factors after __init__, so the kept value stays the degree
    __slots__ = ("_unit", "_t_power", "_factors", "_degree")

    def __init__(
        self,
        factors: Mapping[int, int] | None = None,
        unit: Rational = _ONE,
        t_power: int = 0,
    ):
        """Check and store the parts, with `factors` as {order: multiplicity};
        zero multiplicities are dropped.  from_dict is the reader that checks
        a document's types."""
        if not isinstance(unit, Fraction):
            unit = Fraction(unit)
        if not unit:
            raise ValueError("the unit of a factorization must be nonzero")
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
        self._unit = unit
        self._t_power = t_power
        self._factors = data

    @property
    def unit(self) -> Fraction:
        return self._unit

    @property
    def t_power(self) -> int:
        return self._t_power

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def multiplicity(self, k: int) -> int:
        return self._factors.get(k, 0)

    def orders(self) -> list[int]:
        return sorted(self._factors)

    @property
    def degree(self) -> int:
        """Sum of multiplicity(k) * phi(k), the degree of the polynomial part;
        computed on the first read and kept."""
        try:
            return self._degree
        except AttributeError:
            self._degree = sum(m * euler_phi(k) for k, m in self._factors.items())
            return self._degree

    def __mul__(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        data = dict(self._factors)
        for k, m in other._factors.items():
            data[k] = data.get(k, 0) + m
        return CyclotomicFactorization(
            data, self._unit * other._unit, self._t_power + other._t_power
        )

    def __pow__(self, n: int) -> CyclotomicFactorization:
        if n < 0:
            raise ValueError("negative powers are not defined; use divide")
        return CyclotomicFactorization(
            {k: m * n for k, m in self._factors.items()},
            self._unit**n,
            self._t_power * n,
        )

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
        return CyclotomicFactorization(
            data, self._unit / other._unit, self._t_power - other._t_power
        )

    def gcd(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        """Greatest common divisor up to units of Q[t, t^-1], the least
        multiplicity at each order: self divides other exactly when it
        equals self with unit 1 and t^0."""
        return CyclotomicFactorization(
            {k: min(m, other.multiplicity(k)) for k, m in self._factors.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicFactorization):
            return NotImplemented
        return (
            self._unit == other._unit
            and self._t_power == other._t_power
            and self._factors == other._factors
        )

    def __hash__(self) -> int:
        return hash((self._unit, self._t_power, frozenset(self._factors.items())))

    def __repr__(self) -> str:
        return (
            f"CyclotomicFactorization(unit={self._unit}, t_power={self._t_power}, "
            f"factors={dict(sorted(self._factors.items()))})"
        )

    def __str__(self) -> str:
        parts = []
        if self._unit != 1 or not (self._factors or self._t_power):
            parts.append(str(self._unit))
        if self._t_power:
            parts.append("t" if self._t_power == 1 else f"t^{self._t_power}")
        for k in self.orders():
            m = self._factors[k]
            parts.append(f"Phi({k})" if m == 1 else f"Phi({k})^{m}")
        return " * ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready form: factors sorted by order, unit as a fraction string."""
        return {
            "unit": f"{self._unit.numerator}/{self._unit.denominator}",
            "t_power": self._t_power,
            "factors": [[k, self._factors[k]] for k in self.orders()],
        }

    @classmethod
    def from_dict(cls, data) -> CyclotomicFactorization:
        """Read an Alexander polynomial of a document (a germ's `alexander`,
        `delta_U`) strictly: it must be an object, an order given twice is an
        error, not an overwrite, and `"formal": true`, the label of the bound
        at infinity in a report, is refused, since that bound is none."""
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {data!r}")
        unit = parse_fraction(data.get("unit", 1))
        t_power = parse_integer(data.get("t_power", 0))
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
        return cls(factors, unit, t_power)


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


def parse_fraction(value) -> Fraction:
    """Read a fraction given as an int, a string like '2/3', or a Fraction;
    bool and float values are rejected, not coerced."""
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"cannot interpret {value!r} as an exact rational")

