"""Shared test helpers: random valid hypersurface specs and independent
oracles kept deliberately separate from the package's own computation paths."""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm, prod

from specpairs import (
    BoundTable,
    Brieskorn,
    CyclotomicFactorization,
    Explicit,
    HypersurfaceSpec,
    Ordinary,
    SpectralPairTable,
    euler_phi,
)
from specpairs.pairs import grouped


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@cache
def oracle_cyclotomic(k: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_k: t^k - 1 divided exactly by
    Phi_j for each proper divisor j of k (every Phi_j is monic)."""
    rem = [-1] + [0] * (k - 1) + [1]
    for j in range(1, k):
        if k % j == 0:
            den = oracle_cyclotomic(j)
            quo = [0] * (len(rem) - len(den) + 1)
            for i in reversed(range(len(quo))):
                quo[i] = rem[i + len(den) - 1]
                for e, c in enumerate(den):
                    rem[i + e] -= quo[i] * c
            assert not any(rem), f"Phi_{j} does not divide at order {k}"
            rem = quo
    return tuple(rem)


def t_power_minus_one(d: int) -> CyclotomicFactorization:
    """The factorization of t^d - 1, the product of Phi_k over k | d, with
    the divisors found by trial division of every k <= d."""
    return CyclotomicFactorization({k: 1 for k in range(1, d + 1) if d % k == 0})


def germ_invariants_recomputed(germ) -> tuple[int, int, int, int]:
    """A germ's Milnor number, branch count, local Alexander degree and
    eigenvalue-1 mass, recomputed with loops of their own: a built-in germ's
    first two from its exponents (the product of a - 1, Euclid's algorithm),
    an explicit germ's as given; the degree from the factorization's
    _factors with phi(k) the degree of oracle_cyclotomic(k); the mass from
    the pair table's _groups at numerator 0."""
    if isinstance(germ, Explicit):
        milnor, branches = germ.milnor, germ.branches
    else:
        a, b = germ.exponents
        milnor = (a - 1) * (b - 1)
        while b:
            a, b = b, a % b
        branches = a
    degree = 0
    for k, m in germ.alexander._factors.items():
        degree += m * (len(oracle_cyclotomic(k)) - 1)
    mass = 0
    for group in germ.pairs._groups.values():
        for k, c in group.items():
            if k == 0:
                mass += c
    return milnor, branches, degree, mass


def oracle_expand(f) -> dict[int, int]:
    """A CyclotomicFactorization's product of cyclotomic polynomials
    multiplied out, as {exponent: coefficient} with zero coefficients
    dropped."""
    coeffs = [1]
    for k, m in f.factors.items():
        for _ in range(m):
            coeffs = _poly_mul(coeffs, oracle_cyclotomic(k))
    return {e: c for e, c in enumerate(coeffs) if c}


def weak_multisets(d: int) -> list[tuple[int, ...]]:
    """The weak data of d lines in lexicographic order: every descending
    multiset {m_i} with 2 <= m_i <= d and sum C(m_i, 2) = C(d, 2), built one
    point at a time, each no larger than the one before."""

    def extend(prefix: tuple[int, ...], pairs_left: int):
        if pairs_left == 0:
            yield prefix
        for m in range(2, (prefix[-1] if prefix else d) + 1):
            if comb(m, 2) <= pairs_left:
                yield from extend(prefix + (m,), pairs_left - comb(m, 2))

    return sorted(extend((), comb(d, 2)))


def runs(points) -> tuple[tuple[int, int], ...]:
    """Weak data as its (multiplicity, count) runs, the multiplicity
    descending, from a multiset of multiplicities or a map from each
    multiplicity to its count."""
    return tuple(sorted(Counter(points).items(), reverse=True))


def expand(spec: HypersurfaceSpec) -> tuple[int, ...]:
    """The point multiplicities of a line-arrangement spec, descending, one
    per point."""
    return tuple(sorted(
        (s.multiplicity for s, c in spec.singularities for _ in range(c)),
        reverse=True,
    ))


def oracle_shared_line_violations(
    d: int, multiplicities
) -> list[tuple[int, int]]:
    """Every pair of points, in descending order of multiplicity, whose
    multiplicities (a, b) break a + b - 1 <= d."""
    mults = sorted(multiplicities, reverse=True)
    return [
        (mults[i], mults[j])
        for i in range(len(mults))
        for j in range(i + 1, len(mults))
        if mults[i] + mults[j] - 1 > d
    ]


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


def alexander_alpha_marginal(f: CyclotomicFactorization) -> dict[tuple[int, int], int]:
    """Eigenvalue multiset of a cyclotomic product, grouped by angle alpha
    and keyed, as table_alpha_marginal, by alpha in lowest terms as
    (numerator, denominator): Phi(k) has the angles j/k with gcd(j, k) = 1,
    and (0, 1) for k = 1."""
    out: dict[tuple[int, int], int] = {}
    for k, m in f.factors.items():
        for j in range(k):
            if gcd(j, k) == 1:
                out[j, k] = out.get((j, k), 0) + m
    return out


def table_alpha_marginal(table: SpectralPairTable) -> dict[tuple[int, int], int]:
    """A pair table's total count per eigenvalue angle, read from its rows
    and keyed by the angle in lowest terms as (numerator, denominator)."""
    out: Counter = Counter()
    for _, _, alpha, count in table.to_rows():
        alpha = Fraction(alpha)
        out[alpha.numerator, alpha.denominator] += count
    return dict(out)


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
        pairs=pair_table(entries),
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
            a, b = s.a, s.b
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


def random_curve_draw(rng, d_max: int = 8) -> HypersurfaceSpec:
    """A uniformly scrambled curve spec built from the local models, with
    the Milnor total, branch excess and genus term of a valid curve; a draw
    of d components is d lines, which it need not be consistent as."""
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
            mu_x = candidate.milnor
            if total + mu_x > budget:
                continue
            total += mu_x
            sings.append(candidate)
        excess = sum(s.branches - 1 for s in sings)
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


def consistent_as_lines(spec: HypersurfaceSpec) -> bool:
    """Whether the points can be those of d lines, written out: each is an
    ordinary m-fold point (m branches, Milnor number (m - 1)^2, of any
    kind), and the points account for the C(d, 2) line pairs with C(m, 2)
    each."""
    sings = spec.singularities
    ordinary = all(s.milnor == (s.branches - 1) ** 2 for s, _ in sings)
    return ordinary and sum(comb(s.branches, 2) * c for s, c in sings) == comb(spec.d, 2)


def random_curve_spec(rng, d_max: int = 8) -> HypersurfaceSpec:
    """A valid random_curve_draw: a draw of d components that is not
    consistent as d lines is drawn again."""
    while True:
        spec = random_curve_draw(rng, d_max)
        if spec.components != spec.d or consistent_as_lines(spec):
            return spec


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


def oracle_spectrum(a: int, b: int) -> list[Fraction]:
    """Spectrum of x^a + y^b by brute-force enumeration of i/a + j/b."""
    return sorted(
        Fraction(i, a) + Fraction(j, b) for i in range(1, a) for j in range(1, b)
    )


def oracle_local_pairs(a: int, b: int) -> dict[tuple[int, int, Fraction], int]:
    """Local spectral pairs of x^a + y^b as a Fraction-keyed dict: (0, 1, s)
    for s < 1, (1, 1, 0) for s = 1 and (1, 0, s - 1) for s > 1."""
    out: Counter = Counter()
    for s in oracle_spectrum(a, b):
        if s < 1:
            out[(0, 1, s)] += 1
        elif s == 1:
            out[(1, 1, Fraction(0))] += 1
        else:
            out[(1, 0, s - 1)] += 1
    return dict(out)


def oracle_local_alexander(a: int, b: int) -> dict[int, int]:
    """Cyclotomic multiplicities of the monodromy of x^a + y^b: the spectrum's
    angles grouped by reduced denominator, after checking that every
    primitive root of each order occurs equally often."""
    per_angle = Counter(s % 1 for s in oracle_spectrum(a, b))
    out = {}
    for order in sorted({alpha.denominator for alpha in per_angle}):
        counts = {
            per_angle[Fraction(j, order)]
            for j in range(order)
            if Fraction(j, order).denominator == order
        }
        assert len(counts) == 1, f"not Galois-stable at order {order}"
        out[order] = counts.pop()
    return out


def milnor_orlik_alexander(a: int, b: int) -> dict[int, int]:
    """Cyclotomic multiplicities of the monodromy of x^a + y^b from the
    Milnor-Orlik divisor (Topology 9, 1970), built without any spectrum:
    gcd(a, b) L(lcm(a, b)) - L(a) - L(b) + L(1), where L(n), the divisor of
    t^n - 1, counts Phi_k once for each k dividing n."""
    divisor: Counter = Counter()
    for n, weight in ((lcm(a, b), gcd(a, b)), (a, -1), (b, -1), (1, 1)):
        for k in range(1, n + 1):
            if n % k == 0:
                divisor[k] += weight
    return {k: m for k, m in divisor.items() if m}


def oracle_mhat(m: int, alpha: Fraction) -> int:
    """m * alpha when that is an integer, else 1."""
    scaled = m * alpha
    return scaled.numerator if scaled.denominator == 1 else 1


def oracle_arrangement_table(
    d: int, multiplicities
) -> dict[tuple[int, int, Fraction], int]:
    """Boundary table of a line arrangement straight from its definition: the
    (0,0) and (1,1) eigenvalue-1 counts are the sum of (m_i - 1), and at each
    alpha = j/L in (0, 1), L the lcm of d and the multiplicities, the (0,1)
    count at alpha and the (1,0) count at 1 - alpha are
    sum_i (mhat(m_i, alpha) - 1) + mhat(d, alpha) - 1."""
    out: Counter = Counter()
    points = Counter(multiplicities)
    corner = sum((m - 1) * c for m, c in points.items())
    out[(0, 0, Fraction(0))] = out[(1, 1, Fraction(0))] = corner
    den = lcm(d, *points)
    for j in range(1, den):
        alpha = Fraction(j, den)
        value = sum((oracle_mhat(m, alpha) - 1) * c for m, c in points.items())
        value += oracle_mhat(d, alpha) - 1
        out[(0, 1, alpha)] += value
        out[(1, 0, 1 - alpha)] += value
    return {key: c for key, c in out.items() if c}


def oracle_table_sum(terms, nonunipotent: bool = False) -> dict:
    """count * table summed over (table, count) terms, read from each
    table's rows into a Counter keyed by (p, q, alpha) with Fraction alpha;
    with nonunipotent, the rows at alpha = 0 are left out."""
    out: Counter = Counter()
    for table, count in terms:
        for p, q, alpha, c in table.to_rows():
            alpha = Fraction(alpha)
            if alpha or not nonunipotent:
                out[(p, q, alpha)] += c * count
    return dict(out)


def oracle_local_pair_sum(spec: HypersurfaceSpec) -> dict:
    """The count-weighted sum of the germs' pair tables."""
    return oracle_table_sum((germ.pairs, count) for germ, count in spec.singularities)


def oracle_nonunipotent(spec: HypersurfaceSpec) -> dict:
    """The eigenvalue != 1 rows of the local tables plus the table at
    infinity."""
    terms = [(germ.pairs, count) for germ, count in spec.singularities]
    return oracle_table_sum([(spec.derived.infinity, 1), *terms], nonunipotent=True)


def oracle_curve_table(spec: HypersurfaceSpec) -> dict:
    """The full boundary table of a plane curve from its definition: branch
    excess + d - r at (0,0,0) and (1,1,0), (mu + 2r - d - 1 - branch
    excess)/2 at (0,1,0) and (1,0,0); at alpha > 0 the local (0,1) count
    plus mhat(d, alpha) - 1 at (0,1,alpha) and (1,0,1-alpha), and the local
    (0,0) count at (0,0,alpha) and (1,1,alpha)."""
    d, r = spec.d, spec.components
    sings = spec.singularities
    excess = sum((germ.branches - 1) * count for germ, count in sings)
    mu = (d - 1) ** 2 - sum(germ.milnor * count for germ, count in sings)
    zero = Fraction(0)
    out: Counter = Counter()
    out[(0, 0, zero)] = out[(1, 1, zero)] = excess + d - r
    out[(0, 1, zero)] = out[(1, 0, zero)] = (mu + 2 * r - d - 1 - excess) // 2
    for (p, q, alpha), c in oracle_local_pair_sum(spec).items():
        if alpha and (p, q) == (0, 1):
            out[(0, 1, alpha)] += c
            out[(1, 0, 1 - alpha)] += c
        elif alpha and (p, q) == (0, 0):
            out[(0, 0, alpha)] += c
            out[(1, 1, alpha)] += c
    for j in range(1, d):
        alpha = Fraction(j, d)
        out[(0, 1, alpha)] += oracle_mhat(d, alpha) - 1
        out[(1, 0, 1 - alpha)] += oracle_mhat(d, alpha) - 1
    return {key: c for key, c in out.items() if c}


def table_entries(table) -> dict:
    """A pair or bound table's counts or bounds keyed by (p, q, alpha) with
    Fraction alpha, read from its rows."""
    return {(p, q, Fraction(a)): value for p, q, a, value, *_ in table.to_rows()}


def bound_table(entries, exact=()) -> BoundTable:
    """A BoundTable from bounds keyed by (p, q, alpha) with exact rational
    alpha; `exact` lists the keys whose bound is an equality.  A zero bound
    outside `exact` is dropped, as the producers never store one."""
    den = lcm(*(Fraction(alpha).denominator for _, _, alpha in entries))

    def key(p, q, alpha):
        alpha = Fraction(alpha)
        return (p, q, alpha.numerator * (den // alpha.denominator))

    exact = frozenset(key(*k) for k in exact)
    by_numerator = {key(*k): value for k, value in entries.items()}
    assert exact <= by_numerator.keys(), "an exact key is not in the table"
    kept = {k: value for k, value in by_numerator.items() if value or k in exact}
    return BoundTable(den, grouped(kept), exact)


def oracle_curve_bound(d: int, r: int) -> BoundTable:
    """The curve bound of degree d with r components from its definition:
    j - 1 at (0, 1, j/d) and at its mirror (1, 0, (d - j)/d), and r - 1
    exact at (1, 1, 0)."""
    one = (1, 1, Fraction(0))
    entries = {one: r - 1}
    for j in range(1, d):
        entries[(0, 1, Fraction(j, d))] = entries[(1, 0, Fraction(d - j, d))] = j - 1
    return bound_table(entries, exact=[one])


def pair_table(entries=None) -> SpectralPairTable:
    """A SpectralPairTable from {(p, q, alpha): count} literals with exact
    rational alpha, read as a document's rows, so zero counts are dropped
    and a negative count or an angle outside [0, 1) is rejected."""
    return SpectralPairTable.from_rows([
        [p, q, f"{alpha.numerator}/{alpha.denominator}", count]
        for (p, q, alpha), count in (entries or {}).items()
    ])


def milnor_dim_closed_form(n: int, d: int, m: int) -> int:
    """Dimension of the degree-m graded piece of the Fermat Milnor algebra,
    tuples (a_0, ..., a_n) with sum m and 0 <= a_i <= d - 2, by
    inclusion-exclusion over the coordinates that exceed the cap:

        sum_j (-1)^j C(n+1, j) C(m - j(d-1) + n, n)

    with C(a, b) = 0 whenever a < b; 0 outside [0, (n+1)(d-2)].  An oracle
    for milnor.milnor_dim that shares no code with the spectrum engine."""
    if m < 0 or m > (n + 1) * (d - 2):
        return 0
    # only j <= m/(d-1) leaves C(m - j(d-1) + n, n) nonzero
    return sum(
        (-1) ** j * comb(n + 1, j) * comb(m - j * (d - 1) + n, n)
        for j in range(min(n + 1, m // (d - 1)) + 1)
    )


def work_estimate_closed_form(spec: HypersurfaceSpec) -> int:
    """model._work_estimate written out with its per-germ prices in closed
    form: a built-in germ x^a + y^b, an ordinary point (a = b = m) among
    them, costs 32 min((a-1)(b-1), 2 lcm(a, b)), and an explicit germ 4
    units per unit of each distinct lowest-terms order of the angles in its
    rows."""
    n, d = spec.n, spec.d
    work = (n + 1) * (d - 1) * (32 + (n + 2) * (1 + n // 128))
    for s, count in spec.singularities:
        if isinstance(s, Explicit):
            orders = {Fraction(alpha).denominator for _, _, alpha, _ in s.pairs.to_rows()}
            work += 4 * sum(orders)
        else:
            a, b = s.a, s.b
            work += 32 * min((a - 1) * (b - 1), 2 * lcm(a, b))
        if spec.line_arrangement:
            work += count
    return work


def table_at_infinity_from_dims(n, d, dim) -> SpectralPairTable:
    """The table at infinity written out from Steenbrink's formula, with
    dim(m) the Milnor-algebra dimension in degree m."""
    entries = {}
    for p in range(n + 1):
        for j in range(1, d):
            entries[(p, n - p, Fraction(j, d))] = dim(p * d - n - 1 + j)
    for p in range(n + 2):
        entries[(p, n + 1 - p, Fraction(0))] = dim(p * d - n - 1)
    return pair_table(entries)


def oracle_render_text(report) -> str:
    """render_text as it was before cells were formatted directly: every
    cell through str, the widths through a transpose of the header and all
    rows, each line through str.format.  The rows come from the tables'
    stored groups, read as a flat view, not from the writers' _rows."""
    from specpairs.report import _sections

    spec, derived = report.spec, report.derived
    lines = [
        f"hypersurface: n = {spec.n}, d = {spec.d}, components = "
        f"{spec.components}, singular points = "
        f"{sum(c for _, c in spec.singularities)}",
        f"derived: mu = {derived.mu}, xi = {derived.xi}"
        + (
            f", b1(M) = {derived.b1}, J1 = {derived.j1}"
            if derived.b1 is not None
            else ""
        ),
        f"delta_M = {report.delta_m}   (degree {report.delta_m.degree})",
    ]
    if report.error_term is not None:
        lines.append(
            f"e(t) = {report.error_term}   (degree {report.error_term.degree})"
        )
    for (group, *_), heading, table in _sections(report):
        if heading is None:
            continue
        lines += ["", heading]
        rows = []
        flat = [((p, q, k), value) for (p, q), group in table._groups.items()
                for k, value in group.items()]
        for (p, q, k), value in sorted(flat):
            alpha = Fraction(k, table._den)
            row = [p, q, f"{alpha.numerator}/{alpha.denominator}", value]
            if isinstance(table, BoundTable):
                row.append("exact" if (p, q, k) in table._exact else "upper")
            rows.append(list(map(str, row)))
        if not rows:
            lines.append("  (empty)")
            continue
        header = ["p", "q", "alpha", "count" if group == "tables" else "bound"]
        header += [""] * (len(rows[0]) - len(header))
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        line = "  " + "  ".join(f"{{:<{w}}}" for w in widths)
        lines += [line.format(*row) for row in (header, *rows)]
    for violation in report.warnings:
        lines += ["", f"warning: {violation.message}"]
    lines += ["", "checks:", *("  " + check.line() for check in report.checks)]
    return "\n".join(lines) + "\n"
