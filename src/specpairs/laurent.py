"""Exact arithmetic for Laurent polynomials over Q with root-of-unity zeros.

Two representations are used side by side:

* ``LaurentPoly`` is a sparse map from integer exponents to exact rational
  coefficients, an element of Q[t, t^-1].
* ``CyclotomicFactorization`` stores a rational unit, a power of t and integer
  multiplicities of cyclotomic polynomials.  Every Alexander-type polynomial
  produced by this package has all its zeros on the unit circle at roots of
  unity, so it factors this way; the factored form is the primary carrier and
  the expanded form is used for checking, parsing and display.

Factoring back from the expanded form uses repeated exact division by
cyclotomic candidates instead of general factorization over Q, which keeps the
module dependency free.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping

Rational = int | Fraction


class NotCyclotomicProduct(ValueError):
    """The polynomial has an irreducible factor that is not cyclotomic."""


class NegativeMultiplicity(ValueError):
    """A formal divisibility bound with negative exponents was expanded."""


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


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    Immutable after construction; zero coefficients are never stored.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        data: dict[int, Fraction] = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                data[int(e)] = c
        self._coeffs = data

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: Rational = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def lowest_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no lowest exponent")
        return min(self._coeffs)

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(self._coeffs)

    @property
    def span(self) -> int:
        """Degree of the polynomial part after clearing the lowest power of t."""
        return self.degree - self.lowest_exponent

    def coefficient(self, exponent: int) -> Fraction:
        return self._coeffs.get(exponent, Fraction(0))

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._coeffs.items())

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def reciprocal_variable(self) -> LaurentPoly:
        """Substitute t -> t^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def __add__(self, other: LaurentPoly | Rational) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly({0: other})
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            data[e] = data.get(e, Fraction(0)) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: LaurentPoly | Rational) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other: Rational) -> LaurentPoly:
        return LaurentPoly({0: other}) - self

    def __mul__(self, other: LaurentPoly | Rational) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            c = Fraction(other)
            return LaurentPoly({e: c * v for e, v in self._coeffs.items()})
        data: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                data[e] = data.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def divide_exact(self, divisor: LaurentPoly) -> LaurentPoly | None:
        """Exact quotient self/divisor in Q[t, t^-1], or None if not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        shift = self.lowest_exponent - divisor.lowest_exponent
        num = _dense(self.shifted(-self.lowest_exponent))
        den = _dense(divisor.shifted(-divisor.lowest_exponent))
        quo = _dense_divide(num, den)
        if quo is None:
            return None
        return _from_dense(quo).shifted(shift)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            term = "" if e == 0 else "t" if e == 1 else f"t^{e}"
            mag = abs(c)
            body = f"{mag}" if (term == "" or mag != 1) else ""
            glue = "*" if body and term else ""
            sign = " - " if c < 0 else (" + " if parts else "")
            parts.append(f"{sign}{body}{glue}{term}")
        return "".join(parts)


def _dense(p: LaurentPoly) -> list[Fraction]:
    """Ascending dense coefficients of a polynomial with lowest exponent 0."""
    out = [Fraction(0)] * (p.degree + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _from_dense(coeffs: Iterable[Fraction]) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in enumerate(coeffs)})


def _dense_divide(num: list[Fraction], den: list[Fraction]) -> list[Fraction] | None:
    """Quotient of dense coefficient lists, or None if the remainder is nonzero."""
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        return None
    rem = list(num)
    lead = den[-1]
    quo = [Fraction(0)] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = rem[i + dd]
        if not c:
            continue
        q = c / lead
        quo[i] = q
        for j in range(dd + 1):
            rem[i + j] -= q * den[j]
    if any(rem[:dd]):
        return None
    return quo


@cache
def cyclotomic(k: int) -> LaurentPoly:
    """The k-th cyclotomic polynomial, with integer coefficients.

    Computed by dividing t^k - 1 by the cyclotomic polynomials of the proper
    divisors of k.
    """
    if k < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {k}")
    poly = LaurentPoly({k: 1, 0: -1})
    for d in divisors(k)[:-1]:
        quo = poly.divide_exact(cyclotomic(d))
        assert quo is not None
        poly = quo
    return poly


@cache
def _cyclotomic_dense(k: int) -> tuple[Fraction, ...]:
    return tuple(_dense(cyclotomic(k)))


class CyclotomicFactorization:
    """unit * t^t_power * product over k of cyclotomic(k)^multiplicity.

    Negative multiplicities are allowed only on values flagged ``formal``,
    which represent divisibility bounds rather than concrete polynomials.
    Instances are immutable; zero multiplicities are never stored.
    """

    __slots__ = ("_unit", "_t_power", "_factors", "_formal")

    def __init__(
        self,
        unit: Rational = 1,
        t_power: int = 0,
        factors: Mapping[int, int] | None = None,
        formal: bool = False,
    ):
        unit = Fraction(unit)
        if unit == 0:
            raise ValueError("the unit of a factorization must be nonzero")
        data: dict[int, int] = {}
        for k, m in (factors or {}).items():
            k, m = int(k), int(m)
            if k < 1:
                raise ValueError(f"cyclotomic order must be >= 1, got {k}")
            if m:
                data[k] = m
        if not formal and any(m < 0 for m in data.values()):
            raise ValueError(
                "negative multiplicities require the formal flag; "
                "concrete polynomial orders must have nonnegative exponents"
            )
        self._unit = unit
        self._t_power = int(t_power)
        self._factors = data
        self._formal = bool(formal)

    @property
    def unit(self) -> Fraction:
        return self._unit

    @property
    def t_power(self) -> int:
        return self._t_power

    @property
    def formal(self) -> bool:
        return self._formal

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def multiplicity(self, k: int) -> int:
        return self._factors.get(k, 0)

    def orders(self) -> list[int]:
        return sorted(self._factors)

    @property
    def degree(self) -> int:
        """Sum of multiplicity(k) * phi(k); the exponent span of the expansion."""
        return sum(m * euler_phi(k) for k, m in self._factors.items())

    def expand(self) -> LaurentPoly:
        """Multiply out the factorization.  Requires nonnegative multiplicities."""
        if any(m < 0 for m in self._factors.values()):
            raise NegativeMultiplicity(
                "cannot expand a formal bound with negative exponents"
            )
        result = LaurentPoly.monomial(self._t_power, self._unit)
        for k in self.orders():
            result = result * cyclotomic(k) ** self._factors[k]
        return result

    def __mul__(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        data = dict(self._factors)
        for k, m in other._factors.items():
            data[k] = data.get(k, 0) + m
        return CyclotomicFactorization(
            self._unit * other._unit,
            self._t_power + other._t_power,
            data,
            formal=self._formal or other._formal,
        )

    def __pow__(self, n: int) -> CyclotomicFactorization:
        if n < 0:
            raise ValueError("negative powers are not defined; use divide")
        return CyclotomicFactorization(
            self._unit**n,
            self._t_power * n,
            {k: m * n for k, m in self._factors.items()},
            formal=self._formal,
        )

    def divide(self, other: CyclotomicFactorization) -> CyclotomicFactorization:
        """Exact quotient self/other; raises NotDivisible on a negative exponent."""
        data = dict(self._factors)
        for k, m in other._factors.items():
            data[k] = data.get(k, 0) - m
        if any(m < 0 for m in data.values()):
            raise NotDivisible(f"{other} does not divide {self}")
        return CyclotomicFactorization(
            self._unit / other._unit, self._t_power - other._t_power, data
        )

    def divides(self, other: CyclotomicFactorization) -> bool:
        """Divisibility up to units of Q[t, t^-1]: multiplicity-wise comparison."""
        return all(m <= other.multiplicity(k) for k, m in self._factors.items())

    def reciprocal_variable(self) -> CyclotomicFactorization:
        """The factorization of f(t^-1).

        Cyclotomic polynomials of order >= 2 are palindromic and t - 1 is
        anti-palindromic, so the factors are fixed and only the unit sign and
        the power of t move.
        """
        sign = -1 if self._factors.get(1, 0) % 2 else 1
        return CyclotomicFactorization(
            self._unit * sign,
            -self._t_power - self.degree,
            self._factors,
            formal=self._formal,
        )

    def canonical(self) -> CyclotomicFactorization:
        """Representative with positive expanded leading coefficient and lowest
        exponent 0 (orders of torsion modules are defined up to units)."""
        return CyclotomicFactorization(
            abs(self._unit), 0, self._factors, formal=self._formal
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicFactorization):
            return NotImplemented
        return (
            self._unit == other._unit
            and self._t_power == other._t_power
            and self._factors == other._factors
            and self._formal == other._formal
        )

    def __hash__(self) -> int:
        return hash(
            (self._unit, self._t_power, frozenset(self._factors.items()), self._formal)
        )

    def __repr__(self) -> str:
        return (
            f"CyclotomicFactorization(unit={self._unit}, t_power={self._t_power}, "
            f"factors={dict(sorted(self._factors.items()))}"
            + (", formal=True)" if self._formal else ")")
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
        out = {
            "unit": f"{self._unit.numerator}/{self._unit.denominator}",
            "t_power": self._t_power,
            "factors": [[k, self._factors[k]] for k in self.orders()],
        }
        if self._formal:
            out["formal"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> CyclotomicFactorization:
        return cls(
            parse_fraction(data.get("unit", 1)),
            int(data.get("t_power", 0)),
            {int(k): int(m) for k, m in data.get("factors", [])},
            formal=bool(data.get("formal", False)),
        )


def parse_fraction(value) -> Fraction:
    """Read a fraction given as an int, a string like '2/3', or a Fraction."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def t_power_minus_one(d: int) -> CyclotomicFactorization:
    """The factorization of t^d - 1 as the product of cyclotomic(k) over k | d."""
    if d < 1:
        raise ValueError(f"t^d - 1 requires d >= 1, got {d}")
    return CyclotomicFactorization(factors={k: 1 for k in divisors(d)})


def _candidate_limit(degree: int) -> int:
    # phi(k) <= degree forces k <= 8*degree + 100 for every k below 10^9,
    # which covers any input this package can feasibly expand.
    return 8 * degree + 100


def _phi_table(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for mult in range(p, limit + 1, p):
                phi[mult] -= phi[mult] // p
    return phi


def _is_probable_root(coeffs: list[Fraction], k: int) -> bool:
    """Float screen: does the polynomial plausibly vanish at a primitive k-th
    root of unity?  False negatives are recovered by an exact second pass."""
    top = max(abs(c) for c in coeffs)
    zeta = cmath.exp(2j * cmath.pi / k)
    value = 0j
    for c in reversed(coeffs):
        value = value * zeta + float(c / top)
    return abs(value) < 1e-8


def factor_roots_of_unity(p: LaurentPoly) -> CyclotomicFactorization:
    """Factor a Laurent polynomial all of whose zeros are roots of unity.

    The multiplicity of each cyclotomic polynomial is found by repeated exact
    division over candidate orders k with phi(k) <= remaining degree.  Raises
    NotCyclotomicProduct if a nonconstant remainder survives, which signals an
    invalid (not root-of-unity) input polynomial.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    t_power = p.lowest_exponent
    work = _dense(p.shifted(-t_power))
    mults: dict[int, int] = {}

    for exhaustive in (False, True):
        degree = len(work) - 1
        if degree == 0:
            break
        phi = _phi_table(_candidate_limit(degree))
        k = 0
        while k < len(phi) - 1 and len(work) > 1:
            k += 1
            if phi[k] > len(work) - 1:
                continue
            if not exhaustive and not _is_probable_root(work, k):
                continue
            den = list(_cyclotomic_dense(k))
            while len(work) >= len(den):
                quo = _dense_divide(work, den)
                if quo is None:
                    break
                work = quo
                mults[k] = mults.get(k, 0) + 1

    if len(work) > 1:
        raise NotCyclotomicProduct(
            "polynomial has an irreducible factor that is not cyclotomic"
        )
    return CyclotomicFactorization(work[0], t_power, mults)
