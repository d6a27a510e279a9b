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
from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING

from .laurent import CyclotomicFactorization, divisors
from .milnor import xi_exponent
from .pairs import _angle_texts, _GroupedTable, rescale

if TYPE_CHECKING:
    from .model import HypersurfaceSpec


def mhat(m: int, alpha: Fraction) -> int:
    """m*alpha when that is an integer, else 1 (for alpha strictly inside (0, 1))."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"mhat needs 0 < alpha < 1, got {alpha}")
    scaled, rest = divmod(m * alpha.numerator, alpha.denominator)
    return 1 if rest else scaled


class BoundTable(_GroupedTable):
    """Upper bounds on spectral pairs, with a subset flagged as exact equalities.

    As in SpectralPairTable, the bounds are grouped by Hodge type,
    {(p, q): {k: bound}} for the angle k/den, with no empty group and no
    zero outside the exact keys; keys absent from the table are bounded by 0.
    """

    __slots__ = ("_exact",)

    def __init__(
        self,
        den: int,
        groups: dict[tuple[int, int], dict[int, int]],
        exact: frozenset = frozenset(),
    ):
        """`exact` holds the (p, q, k) keys whose bound is an equality.
        Takes ownership of `groups` and checks nothing."""
        self._den, self._groups, self._exact = den, groups, exact

    def bound_at(self, key: tuple[int, int, int]) -> int:
        """The bound at (p, q, k), for the angle k/den of this table."""
        p, q, k = key
        return self._groups.get((p, q), {}).get(k, 0)

    def exceeding(self, cap: BoundTable) -> list[tuple[int, int, str, int]]:
        """(p, q, "a/b", cap's bound), angle in lowest terms, for each key
        with alpha > 0 where this table's bound exceeds that of `cap`."""
        den = lcm(self._den, cap._den)
        caps, step = rescale(cap._groups, den // cap._den), den // self._den
        found = []
        for (p, q), group in self._groups.items():
            capped = caps.get((p, q), {}).get
            for k, v in group.items():
                k *= step
                c = capped(k, 0)
                if k > 0 and v > c:
                    found.append((p, q, k, c))
        return [(p, q, _angle_texts(den)[k], c) for p, q, k, c in sorted(found)]

    def _over(self, den: int) -> tuple[dict, set]:
        """The groups and the exact keys over den, a multiple of _den."""
        factor = den // self._den
        return super()._over(den), {(p, q, k * factor) for p, q, k in self._exact}

    def __repr__(self) -> str:
        rows = ", ".join(
            f"({p},{q},{alpha}){'=' if kind == 'exact' else '<='}{v}"
            for p, q, alpha, v, kind in self._cells()
        )
        return f"BoundTable({rows})"

    def _rows(self) -> list[tuple[int, int, list[str], list[int], list[str]]]:
        """The rows of every output by Hodge type in key order, each type
        as its columns (p, q, ["a/b", ...], [bound, ...], ["exact" or
        "upper", ...]) with the angles in order and in lowest terms."""
        texts, groups, out = _angle_texts(self._den), self._groups, []
        for p, q in sorted(groups):
            group = groups[p, q]
            keys = sorted(group)
            exact = {k for e_p, e_q, k in self._exact if e_p == p and e_q == q}
            out.append((p, q, list(map(texts.__getitem__, keys)),
                        list(map(group.__getitem__, keys)),
                        ["exact" if k in exact else "upper" for k in keys]))
        return out


@lru_cache(maxsize=1)
def divisibility_bound_infinity(n: int, d: int) -> CyclotomicFactorization:
    """Divisor bound from the fiber at infinity, written as the quotient
    (t-1)^((-1)^(n+1)) * (t^d-1)^xi with xi = ((d-1)^(n+1) + (-1)^n)/d.

    It is a polynomial, since no multiplicity is negative: the combined
    exponent of t - 1 is xi - 1 for even n, where xi >= 1, and xi + 1 for
    odd n, where xi >= 0 (xi = 0 only for d = 2).  It is a divisibility
    bound, not the order of a module.  As with steenbrink_infinity, the
    value of the last (n, d) is kept and shared.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    factors = dict.fromkeys(divisors(d), xi_exponent(n, d))
    factors[1] += (-1) ** (n + 1)
    return CyclotomicFactorization(factors)


def spectral_bound_complement(spec: HypersurfaceSpec) -> BoundTable:
    """Upper bounds for the spectral pairs of the middle Alexander module.

    Each bound is capped by the entry of the table at infinity, the
    Milnor-algebra dimension at grading p*d - n - 1 + d*alpha.  Weight n
    (alpha > 0): min of the local sum and that entry; the table at infinity
    lives on the angles j/d, so the bound vanishes elsewhere.  Weight n + 1
    (alpha = 0): the entry alone, or, when the Hodge numbers of the
    hypersurface's middle cohomology are supplied, the min of the entry and
    the local sum plus those numbers.
    """
    derived = spec.derived
    h_d = None if spec.h_d is None else {(p, q): c for p, q, c in spec.h_d}
    local, infinity = derived.local_pair_sum, derived.infinity
    groups: dict[tuple[int, int], dict[int, int]] = {}
    # the table is kept over the denominator d of the table at infinity; its
    # angle j/d is a local angle k/local._den only where k is an integer,
    # and elsewhere j > 0, so the local side and the bound are 0
    for pq, group in infinity._groups.items():
        local_group = local._groups.get(pq, {})
        extra = None if h_d is None else h_d.get(pq, 0)
        groups[pq] = bounds = {}
        for j, infinity_side in group.items():
            k, off_grid = divmod(j * local._den, infinity._den)
            if off_grid:
                continue
            local_side = local_group.get(k, 0)
            if j:
                bound = min(local_side, infinity_side)
            elif extra is None:
                bound = infinity_side
            else:
                bound = min(local_side + extra, infinity_side)
            if bound:
                bounds[j] = bound
    return BoundTable(infinity._den, {pq: g for pq, g in groups.items() if g})


def spectral_bound_curve(spec: HypersurfaceSpec) -> BoundTable:
    """Curve-case bounds: h^{0,1} at angle j/d is at most j - 1 (mirrored to
    h^{1,0} at angle (d-j)/d), and the eigenvalue-1 pair (1,1) equals r - 1
    exactly.  The bound at angle 1/d is 0."""
    if spec.n != 1:
        raise ValueError("spectral_bound_curve requires n = 1")
    return _curve_bound(spec.d, spec.components)


@lru_cache(maxsize=1)
def _curve_bound(d: int, r: int) -> BoundTable:
    """spectral_bound_curve of a curve of degree d with r components.  As
    with steenbrink_infinity, the table of the last (d, r) is kept and
    shared read-only: every row of a census asks for the same one."""
    return _curve_shaped_bound(d, [j - 1 for j in range(1, d)], r - 1)


def _curve_shaped_bound(d: int, values: list[int], exact_11: int) -> BoundTable:
    """Bounds values[j-1] at (0, 1, j/d) and mirrored at (1, 0, (d-j)/d) for
    j = 1..d-1, and the exact value exact_11 at (1, 1, 0)."""
    into = {j: value for j, value in enumerate(values, start=1) if value}
    mirror = {d - j: value for j, value in into.items()}
    groups = {(0, 1): into, (1, 0): mirror} if into else {}
    groups[1, 1] = {0: exact_11}
    return BoundTable(d, groups, frozenset([(1, 1, 0)]))


def spectral_bound_arrangement(d: int, points) -> BoundTable:
    """Line-arrangement bounds from the (multiplicity, count) runs of its points.

    At angle j/d the bound is min(j - 1, sum of (mhat(m_i, j/d) - 1)); the
    eigenvalue-1 pair (1,1) equals d - 1 exactly.  For gcd(j, d) = 1 the bound
    vanishes unless some multiplicity equals d.
    """
    excess = [0] * d
    for m, c in points:
        # mhat(m, j/d) - 1 is m*j/d - 1 where d divides m*j, and 0 elsewhere
        step = d // gcd(m, d)
        for j in range(step, d, step):
            excess[j] += (m * j // d - 1) * c
    values = [min(j - 1, excess[j]) for j in range(1, d)]
    return _curve_shaped_bound(d, values, d - 1)
