"""Graded dimensions of the Fermat Milnor algebra and the spectral pairs at
infinity of a degree-d hypersurface transversal at infinity.

The Milnor algebra of x_0^d + ... + x_n^d has a monomial basis with every
exponent at most d - 2, so its graded dimension counts bounded compositions:
the coefficients of (1 + t + ... + t^(d-2))^(n+1).  The spectral pairs of the
middle cohomology of the fiber at infinity depend only on (n, d) and are
read off these dimensions by Steenbrink's formula; the table is built from
one list of them, made by n + 1 passes of prefix sums.  ``milnor_dim`` is
the inclusion-exclusion closed form for a single degree, kept for the
``oracle`` command and as an independent check of that list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb
from operator import sub

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
    # only j <= m/(d-1) leaves C(m - j(d-1) + n, n) nonzero
    return sum(
        (-1) ** j * comb(n + 1, j) * comb(m - j * (d - 1) + n, n)
        for j in range(min(n + 1, m // (d - 1)) + 1)
    )


def xi_exponent(n: int, d: int) -> int:
    """xi = ((d-1)^(n+1) + (-1)^n) / d, the exponent of t^d - 1 in the
    boundary Alexander polynomial; the division is exact since d - 1 = -1
    mod d."""
    return ((d - 1) ** (n + 1) + (-1) ** n) // d


def milnor_dim_bruteforce(n: int, d: int, m: int) -> int:
    """Independent oracle for milnor_dim by exhaustive monomial enumeration."""
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    # (d-1)^(n+1) tuples of n+1 exponents, bounded without computing the
    # power, which may have more digits than str converts
    work = n + 1
    for _ in range(n + 1 if d > 2 else 0):
        if work > _ENUMERATION_GUARD:
            break
        work *= d - 1
    if work > _ENUMERATION_GUARD:
        raise EnumerationTooLarge(
            f"enumerating (d-1)^(n+1) tuples of n+1 exponents exceeds "
            f"{_ENUMERATION_GUARD} steps"
        )
    return sum(
        1 for exponents in product(range(d - 1), repeat=n + 1) if sum(exponents) == m
    )


@lru_cache(maxsize=1)
def steenbrink_infinity(n: int, d: int) -> SpectralPairTable:
    """Spectral pairs of the middle cohomology of the fiber at infinity.

    Eigenvalues exp(2*pi*i*j/d) with j > 0 sit in weight n with
    h^{p,n-p} = milnor_dim(n, d, pd - n - 1 + j); eigenvalue 1 sits in weight
    n + 1 with h^{p,n+1-p} = milnor_dim(n, d, pd - n - 1).  The total
    dimension is (d-1)^(n+1).

    The table of the last (n, d) is kept and returned again, a shared
    read-only value: every row of a census asks for the same one, and no
    more than one table is ever held.
    """
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    # dims[m] = milnor_dim(n, d, m), the coefficients of (1 + ... + t^(d-2))^(n+1):
    # each pass multiplies by 1 - t^(d-1) and divides by 1 - t with prefix
    # sums, which leaves a zero top coefficient to drop
    dims = [1]
    pad = [0] * (d - 1)
    for _ in range(n + 1):
        dims = list(accumulate(map(sub, dims + pad, pad + dims)))[:-1]
    entries: dict[tuple[int, int, int], int] = {}
    for j in range(1, d):
        for p in range(n + 1):
            m = p * d - n - 1 + j
            if 0 <= m < len(dims) and dims[m]:
                entries[(p, n - p, j)] = dims[m]
    for p in range(n + 2):
        m = p * d - n - 1
        if 0 <= m < len(dims) and dims[m]:
            entries[(p, n + 1 - p, 0)] = dims[m]
    return SpectralPairTable._from_numerators(d, entries)
