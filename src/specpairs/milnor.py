"""The Brieskorn-Pham spectrum engine, graded dimensions of the Fermat
Milnor algebra and the spectral pairs at infinity of a degree-d
hypersurface transversal at infinity.

``brieskorn_pham_spectrum`` enumerates the spectrum {sum_i k_i/a_i : 1 <=
k_i < a_i} of x_0^{a_0} + ... + x_n^{a_n} (Steenbrink) as one list of
multiplicities, indexed by the integer numerators from the least value on,
and ``_pairs_at_level`` cuts that list into unit intervals, one Hodge type
of spectral pairs per slice.  Every built-in germ and the table at
infinity, the pair table of the Fermat germ x_0^d + ... + x_n^d, go
through both.  ``milnor_dim`` indexes the Fermat list for one graded
dimension of the Fermat Milnor algebra, for the ``oracle`` command, which
sets it beside a brute-force enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import gcd, lcm
from operator import sub

from .pairs import SpectralPairTable


class EnumerationTooLarge(ValueError):
    """The brute-force monomial enumeration would exceed the guard."""


_ENUMERATION_GUARD = 10**7
_TUPLE_GUARD = 10**5  # the longest tuple of exponents either side builds


def milnor_dim(n: int, d: int, m: int) -> int:
    """Dimension of the degree-m graded piece of the Fermat Milnor algebra,
    the number of tuples (a_0, ..., a_n) with sum m and 0 <= a_i <= d - 2:
    the multiplicity of the spectrum value (m + n + 1)/d of
    x_0^d + ... + x_n^d, so 0 outside [0, (n+1)(d-2)]."""
    if n < 0 or d < 2:
        raise ValueError(f"need n >= 0 and d >= 2, got n={n}, d={d}")
    # den = d and shift = n + 1, so the value (m + n + 1)/d sits at index m
    coeffs = brieskorn_pham_spectrum((d,) * (n + 1))[2]
    return coeffs[m] if 0 <= m < len(coeffs) else 0


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
    if n + 1 > _TUPLE_GUARD:
        raise EnumerationTooLarge(
            f"a tuple of n+1 = {n + 1} exponents exceeds {_TUPLE_GUARD} entries"
        )
    return sum(
        1 for exponents in product(range(d - 1), repeat=n + 1) if sum(exponents) == m
    )


def brieskorn_pham_spectrum(exponents: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """Spectrum of x_0^{a_0} + ... + x_n^{a_n} as (den, shift, coeffs),
    den = lcm(a): coeffs[i] is the multiplicity of the value (shift + i)/den
    in (0, n + 1), from the least value shift/den to the greatest, which
    both have multiplicity 1; values between may have none.

    In u = t^(1/den), c_i = den/a_i, it is u^(sum c_i) times the product of
    the (1 - u^((a_i - 1)c_i)) / (1 - u^c_i): per factor, one shifted
    subtraction and one prefix-sum pass of stride c_i, which leaves c_i zero
    top coefficients to drop.  The product so far lives on multiples of
    `step`, so the pass skips the residues mod c_i that hold only zeros.
    An exponent 2 has the factor 1 and makes no pass.
    """
    den, step = lcm(*exponents), 0
    coeffs = [1]
    for a in sorted(exponents):
        if a == 2:
            continue
        c, width = den // a, len(coeffs)
        coeffs += [0] * ((a - 1) * c)
        coeffs[-width:] = map(sub, coeffs[-width:], coeffs[:width])
        step = gcd(step, c)
        for r in range(0, c, step):
            coeffs[r::c] = list(accumulate(coeffs[r::c]))
        del coeffs[-c:]
    return den, sum(den // a for a in exponents), coeffs


def _pairs_at_level(n: int, den: int, shift: int, coeffs: list) -> SpectralPairTable:
    """The spectral pairs at level n of the spectrum (den, shift, coeffs) of
    brieskorn_pham_spectrum: a non-integer value s gives
    (floor(s), n - floor(s), s - floor(s)) and an integer s gives
    (s, n + 1 - s, 0).  The values in [p, p + 1) are one slice of coeffs,
    its head at the integer p and its tail the Hodge type (p, n - p)."""
    groups: dict[tuple[int, int], dict[int, int]] = {}
    for p in range(shift // den, (shift + len(coeffs) - 1) // den + 1):
        head = p * den - shift  # the index of the value p, negative below shift
        if head >= 0 and coeffs[head]:
            groups[p, n + 1 - p] = {0: coeffs[head]}
        first = max(head + 1, 0)
        tail = {j: c for j, c in enumerate(coeffs[first:head + den], first - head) if c}
        if tail:
            groups[p, n - p] = tail
    return SpectralPairTable(den, groups)


@lru_cache(maxsize=1)
def steenbrink_infinity(n: int, d: int) -> SpectralPairTable:
    """Spectral pairs of the middle cohomology of the fiber at infinity: the
    pairs at level n of the Fermat germ x_0^d + ... + x_n^d.

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
    return _pairs_at_level(n, *brieskorn_pham_spectrum((d,) * (n + 1)))
