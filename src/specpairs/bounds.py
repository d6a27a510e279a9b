"""Divisibility and spectral-pair upper bounds for the middle Alexander module
of the hypersurface complement.

The complement side of the story only admits bounds in general: the middle
Alexander polynomial divides both a factor supported at infinity and a factor
built from the local singularities, and each spectral pair is capped by the
minimum of a local sum and a Milnor-algebra dimension.  Exact values, when
known, are user inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .laurent import CyclotomicFactorization, t_power_minus_one
from .milnor import milnor_dim, xi_exponent
from .pairs import PairKey

if TYPE_CHECKING:
    from .model import HypersurfaceSpec


class NegativeMu(ValueError):
    """Local Milnor numbers exceed the global budget (d-1)^(n+1)."""


def mhat(m: int, alpha: Fraction) -> int:
    """m*alpha when that is an integer, else 1 (for alpha strictly inside (0, 1))."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"mhat needs 0 < alpha < 1, got {alpha}")
    scaled = m * alpha
    return int(scaled) if scaled.denominator == 1 else 1


class BoundTable:
    """Upper bounds on spectral pairs, with a subset flagged as exact equalities.

    Keys absent from the table are bounded by 0.
    """

    __slots__ = ("_entries", "_exact")

    def __init__(
        self,
        entries: Mapping[PairKey, int] | None = None,
        exact: Iterable[PairKey] = (),
    ):
        data: dict[PairKey, int] = {}
        for key, value in (entries or {}).items():
            p, q, alpha = key
            data[(int(p), int(q), Fraction(alpha))] = int(value)
        self._exact = frozenset(
            (int(p), int(q), Fraction(alpha)) for p, q, alpha in exact
        )
        missing = self._exact - set(data)
        if missing:
            raise ValueError(f"exact keys {sorted(missing)} are not in the table")
        # Zero upper bounds carry no information; zero equalities do.
        self._entries = {
            k: v for k, v in data.items() if v != 0 or k in self._exact
        }

    def bound_at(self, key) -> int:
        p, q, alpha = key
        return self._entries.get((int(p), int(q), Fraction(alpha)), 0)

    def is_exact(self, key) -> bool:
        p, q, alpha = key
        return (int(p), int(q), Fraction(alpha)) in self._exact

    def items(self) -> list[tuple[PairKey, int]]:
        return sorted(
            self._entries.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundTable):
            return NotImplemented
        return self._entries == other._entries and self._exact == other._exact

    def __repr__(self) -> str:
        rows = ", ".join(
            f"({p},{q},{alpha}){'=' if (p, q, alpha) in self._exact else '<='}{v}"
            for (p, q, alpha), v in self.items()
        )
        return f"BoundTable({rows})"

    def to_rows(self) -> list[list]:
        return [
            [
                p,
                q,
                f"{alpha.numerator}/{alpha.denominator}",
                v,
                "exact" if (p, q, alpha) in self._exact else "upper",
            ]
            for (p, q, alpha), v in self.items()
        ]


def divisibility_bound_infinity(n: int, d: int) -> CyclotomicFactorization:
    """Divisor bound from the fiber at infinity, as a formal factorization:
    (t-1)^((-1)^(n+1)) * (t^d-1)^xi with xi = ((d-1)^(n+1) + (-1)^n)/d.

    The combined exponent of t - 1 may be zero or negative, so the result is
    flagged formal.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    xi = xi_exponent(n, d)
    factors = {k: xi for k in t_power_minus_one(d).factors}
    factors[1] = factors.get(1, 0) + (-1) ** (n + 1)
    return CyclotomicFactorization(factors=factors, formal=True)


def divisibility_bound_local(spec: HypersurfaceSpec) -> CyclotomicFactorization:
    """Divisor bound from the singular points: (t-1)^mu times the product of
    the top local Alexander polynomials."""
    mu, local = spec.derived.mu, spec.derived.local_alexander_product
    if mu < 0:
        raise NegativeMu(
            f"local Milnor numbers exceed (d-1)^(n+1) = "
            f"{(spec.d - 1) ** (spec.n + 1)}"
        )
    return CyclotomicFactorization(factors={1: mu}) * local


def spectral_bound_complement(
    spec: HypersurfaceSpec, h_d: Mapping[tuple[int, int], int] | None = None
) -> BoundTable:
    """Upper bounds for the spectral pairs of the middle Alexander module.

    Weight n (alpha > 0): min of the local sum and the Milnor-algebra
    dimension at grading p*d - n - 1 + d*alpha; the grading is integral only
    for alpha a multiple of 1/d, and the bound vanishes otherwise.  Weight
    n + 1 (alpha = 0): the Milnor-algebra side is always available, and the
    local side is added only when the Hodge numbers of the hypersurface's
    middle cohomology are supplied.
    """
    n, d = spec.n, spec.d
    if h_d is None and spec.h_d is not None:
        h_d = {(p, q): c for p, q, c in spec.h_d}
    local_sum = spec.derived.local_pair_sum
    entries: dict[PairKey, int] = {}
    alphas = {alpha for (_, _, alpha) in local_sum.keys() if alpha > 0}
    alphas.update(Fraction(j, d) for j in range(1, d))
    for alpha in sorted(alphas):
        scaled = d * alpha
        for p in range(n + 1):
            local_side = local_sum.get((p, n - p, alpha))
            infinity_side = (
                milnor_dim(n, d, p * d - n - 1 + int(scaled))
                if scaled.denominator == 1
                else 0
            )
            bound = min(local_side, infinity_side)
            if bound:
                entries[(p, n - p, alpha)] = bound
    for p in range(n + 2):
        infinity_side = milnor_dim(n, d, p * d - n - 1)
        if h_d is None:
            bound = infinity_side
        else:
            local_side = local_sum.get((p, n + 1 - p, Fraction(0)))
            bound = min(local_side + h_d.get((p, n + 1 - p), 0), infinity_side)
        if bound:
            entries[(p, n + 1 - p, Fraction(0))] = bound
    return BoundTable(entries)


def spectral_bound_curve(spec: HypersurfaceSpec) -> BoundTable:
    """Curve-case bounds: h^{0,1} at angle j/d is at most j - 1 (mirrored to
    h^{1,0} at angle (d-j)/d), and the eigenvalue-1 pair (1,1) equals r - 1
    exactly.  The bound at angle 1/d is 0."""
    if spec.n != 1:
        raise ValueError("spectral_bound_curve requires n = 1")
    d, r = spec.d, spec.components
    entries: dict[PairKey, int] = {}
    for j in range(1, d):
        if j - 1:
            entries[(0, 1, Fraction(j, d))] = j - 1
            entries[(1, 0, Fraction(d - j, d))] = j - 1
    key = (1, 1, Fraction(0))
    entries[key] = r - 1
    return BoundTable(entries, exact=[key])


def spectral_bound_arrangement(d: int, multiplicities: Iterable[int]) -> BoundTable:
    """Line-arrangement bounds from weak combinatorial data.

    At angle j/d the bound is min(j - 1, sum of (mhat(m_i, j/d) - 1)); the
    eigenvalue-1 pair (1,1) equals d - 1 exactly.  For gcd(j, d) = 1 the bound
    vanishes unless some multiplicity equals d.
    """
    mults = list(multiplicities)
    entries: dict[PairKey, int] = {}
    for j in range(1, d):
        alpha = Fraction(j, d)
        bound = min(j - 1, sum(mhat(m, alpha) - 1 for m in mults))
        if bound:
            entries[(0, 1, alpha)] = bound
            entries[(1, 0, Fraction(d - j, d))] = bound
    key = (1, 1, Fraction(0))
    entries[key] = d - 1
    return BoundTable(entries, exact=[key])
