"""Graded dimensions of the Fermat Milnor algebra and the spectral pairs at
infinity of a degree-d hypersurface transversal at infinity.

The Milnor algebra of x_0^d + ... + x_n^d has a monomial basis with every
exponent at most d - 2, so its graded dimension counts bounded compositions.
The spectral pairs of the middle cohomology of the fiber at infinity depend
only on (n, d) and are read off these dimensions by Steenbrink's formula.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .pairs import SpectralPairTable


class EnumerationTooLarge(ValueError):
    """The brute-force monomial enumeration would exceed the guard."""


_ENUMERATION_GUARD = 10**7


def top_weight(n: int, d: int) -> int:
    """Largest degree with a nonzero graded piece: (n+1)(d-2)."""
    return (n + 1) * (d - 2)


def milnor_dim(n: int, d: int, m: int) -> int:
    """Dimension of the degree-m graded piece of the Fermat Milnor algebra.

    Counts tuples (a_0, ..., a_n) with sum m and 0 <= a_i <= d - 2, by
    inclusion-exclusion over coordinates exceeding the cap:

        sum_j (-1)^j C(n+1, j) C(m - j(d-1) + n, n)

    with C(a, b) = 0 whenever a < b.  Returns 0 outside [0, (n+1)(d-2)].
    """
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    if m < 0 or m > top_weight(n, d):
        return 0
    total = 0
    for j in range(n + 2):
        a = m - j * (d - 1) + n
        if a < n:
            continue
        total += (-1) ** j * comb(n + 1, j) * comb(a, n)
    return total


def xi_exponent(n: int, d: int) -> int:
    """xi = ((d-1)^(n+1) + (-1)^n) / d, the exponent of t^d - 1 in the
    boundary Alexander polynomial; the division is exact since d - 1 = -1
    mod d."""
    return ((d - 1) ** (n + 1) + (-1) ** n) // d


def smooth_primitive_middle(n: int, d: int, p: int) -> int:
    """Primitive middle Hodge number h^{p,n-p} of a smooth degree-d
    hypersurface in projective (n+1)-space.

    Equals the weight-n part of the cohomology of the fiber at infinity:
    the sum of milnor_dim(n, d, pd + i - n - 1) over i = 1..d-1.
    """
    return sum(milnor_dim(n, d, p * d + i - n - 1) for i in range(1, d))


def milnor_dim_bruteforce(n: int, d: int, m: int) -> int:
    """Independent oracle for milnor_dim by exhaustive monomial enumeration."""
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    if (d - 1) ** (n + 1) > _ENUMERATION_GUARD:
        raise EnumerationTooLarge(
            f"(d-1)^(n+1) = {(d - 1) ** (n + 1)} exceeds {_ENUMERATION_GUARD}"
        )
    return sum(
        1 for exponents in product(range(d - 1), repeat=n + 1) if sum(exponents) == m
    )


def steenbrink_infinity(n: int, d: int) -> SpectralPairTable:
    """Spectral pairs of the middle cohomology of the fiber at infinity.

    Eigenvalues exp(2*pi*i*j/d) with j > 0 sit in weight n with
    h^{p,n-p} = milnor_dim(n, d, pd - n - 1 + j); eigenvalue 1 sits in weight
    n + 1 with h^{p,n+1-p} = milnor_dim(n, d, pd - n - 1).  The total
    dimension is (d-1)^(n+1).
    """
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    entries: dict[tuple[int, int, Fraction], int] = {}
    for j in range(1, d):
        alpha = Fraction(j, d)
        for p in range(n + 1):
            count = milnor_dim(n, d, p * d - n - 1 + j)
            if count:
                entries[(p, n - p, alpha)] = count
    for p in range(n + 2):
        count = milnor_dim(n, d, p * d - n - 1)
        if count:
            entries[(p, n + 1 - p, Fraction(0))] = count
    return SpectralPairTable(entries)
