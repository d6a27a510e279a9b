"""Shared test helpers: random valid hypersurface specs and independent
oracles kept deliberately separate from the package's own computation paths."""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, prod

from specpairs import (
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    Ordinary,
    SpectralPairTable,
    branches,
    euler_phi,
    milnor_number,
)


def numeric_char_poly(spectrum) -> list[complex]:
    """Ascending complex coefficients of prod (t - exp(2*pi*i*s))."""
    coeffs = [1 + 0j]
    for s in spectrum:
        root = cmath.exp(2j * cmath.pi * float(s))
        shifted = [0j] + coeffs  # multiply by t
        scaled = [-root * c for c in coeffs] + [0j]  # multiply by -root
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def group_alpha_counts(alphas) -> dict[int, int]:
    """Independent regrouping of a Galois-stable eigenvalue multiset into
    cyclotomic multiplicities (counts per order divided by the totient)."""
    per_order = Counter(a.denominator for a in alphas)
    mults = {}
    for k, total in sorted(per_order.items()):
        assert total % euler_phi(k) == 0, f"not Galois-stable at order {k}"
        mults[k] = total // euler_phi(k)
    return mults


def brieskorn_pham_explicit(exponents: tuple[int, ...]) -> Explicit:
    """Internally consistent Explicit data modelled on the germ
    x_0^{a_0} + ... + x_n^{a_n} in n+1 variables (n = len(exponents) - 1)."""
    n = len(exponents) - 1
    spectrum = [
        sum(Fraction(i, a) for i, a in zip(choice, exponents))
        for choice in product(*(range(1, a) for a in exponents))
    ]
    mu = prod(a - 1 for a in exponents)
    entries: dict[tuple[int, int, Fraction], int] = {}
    for s in spectrum:
        if s.denominator == 1:
            key = (int(s), n + 1 - int(s), Fraction(0))
        else:
            level = int(s)  # floor: 0 < s < n+1 and s not an integer
            key = (level, n - level, s - level)
        entries[key] = entries.get(key, 0) + 1
    alphas = [s - int(s) if s.denominator > 1 else Fraction(0) for s in spectrum]
    alexander = CyclotomicFactorization(factors=group_alpha_counts(alphas))
    local_branches = gcd(*exponents) if n == 1 else 1
    grf: dict[int, int] = {}
    for (p, _, _), c in entries.items():
        grf[p] = grf.get(p, 0) + c
    return Explicit(
        milnor=mu,
        branches=local_branches,
        alexander=alexander,
        pairs=SpectralPairTable(entries),
        grf_dims=tuple(sorted(grf.items())),
    )


def oracle_boundary_alexander(spec: HypersurfaceSpec) -> CyclotomicFactorization:
    """delta_M from its explicit formula
    (t-1)^((-1)^(n+1) + mu) * (t^d - 1)^xi * prod over points of Delta_x,
    with each built-in Delta_x regrouped from a spectrum enumerated here and
    each explicit germ contributing its supplied polynomial."""
    n, d = spec.n, spec.d
    factors: Counter = Counter()
    local_milnor = 0
    for s, count in spec.singularities:
        if isinstance(s, Explicit):
            local_milnor += s.milnor * count
            local = s.alexander.factors
        else:
            a, b = (s.a, s.b) if isinstance(s, Brieskorn) else (s.multiplicity,) * 2
            spectrum = [
                Fraction(i, a) + Fraction(j, b) for i in range(1, a) for j in range(1, b)
            ]
            local_milnor += len(spectrum) * count
            local = group_alpha_counts(value % 1 for value in spectrum)
        for k, m in local.items():
            factors[k] += m * count
    global_milnor = (d - 1) ** (n + 1)
    xi, remainder = divmod(global_milnor + (-1) ** n, d)
    assert remainder == 0
    for k in range(1, d + 1):
        if d % k == 0:
            factors[k] += xi
    factors[1] += (-1) ** (n + 1) + global_milnor - local_milnor
    return CyclotomicFactorization(factors={k: m for k, m in factors.items() if m})


def _group_counts(sings) -> tuple:
    counts = Counter(sings)
    return tuple(sorted(counts.items(), key=lambda kv: repr(kv[0])))


def random_curve_spec(rng, d_max: int = 8) -> HypersurfaceSpec:
    """A uniformly scrambled valid curve spec built from the local models."""
    while True:
        d = rng.randint(2, d_max)
        budget = (d - 1) ** 2
        sings = []
        total = 0
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                m = rng.randint(2, d)
                candidate = Ordinary(m)
            else:
                candidate = Brieskorn(rng.randint(2, 4), rng.randint(2, 6))
            mu_x = milnor_number(candidate)
            if total + mu_x > budget:
                continue
            total += mu_x
            sings.append(candidate)
        excess = sum(branches(s) - 1 for s in sings)
        mu = budget - total
        r_lo = max(1, (d + 2 + excess - mu) // 2)
        r_hi = min(d, excess + 1)
        if r_lo > r_hi:
            continue
        return HypersurfaceSpec(
            n=1,
            d=d,
            components=rng.randint(r_lo, r_hi),
            singularities=_group_counts(sings),
        )


def random_spec(rng, n: int, d_max: int = 8) -> HypersurfaceSpec:
    """A valid spec in ambient dimension n+1; higher dimensions carry
    Brieskorn-Pham style Explicit singularities."""
    if n == 1:
        return random_curve_spec(rng, d_max)
    d = rng.randint(2, d_max)
    budget = (d - 1) ** (n + 1)
    sings = []
    total = 0
    for _ in range(rng.randint(0, 3)):
        exponents = tuple(rng.randint(2, 4) for _ in range(n + 1))
        candidate = brieskorn_pham_explicit(exponents)
        if total + candidate.milnor > budget:
            continue
        total += candidate.milnor
        sings.append(candidate)
    return HypersurfaceSpec(
        n=n, d=d, components=1, singularities=_group_counts(sings)
    )
