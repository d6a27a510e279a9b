"""Exact invariants of the boundary manifold of a hypersurface complement.

The boundary manifold of the complement of a degree-d affine hypersurface
transversal at infinity has exactly one interesting Alexander module, in the
middle degree.  Its Alexander polynomial is an explicit product of a factor at
infinity and the top local Alexander polynomials, of degree 2(d-1)^(n+1)
independently of the singularities.  The spectral pairs of the non-unipotent
part are the sum of local tables and the table at infinity; the unipotent part
is computable exactly for plane curves and for rational homology manifolds,
along two independent routes that must agree and are cross-checked.
"""

from __future__ import annotations

from math import lcm

from .bounds import divisibility_bound_infinity
from .laurent import CyclotomicFactorization, NotDivisible
from .model import HypersurfaceSpec, middle_hodge_numbers
from .pairs import SpectralPairTable, table_sum


def boundary_alexander(spec: HypersurfaceSpec) -> CyclotomicFactorization:
    """Middle Alexander polynomial of the boundary manifold:

        (t-1)^((-1)^(n+1) + mu) * (t^d - 1)^xi * product of local polynomials,

    a concrete factorization of degree 2(d-1)^(n+1).
    It is the product of the two divisibility bounds of the complement;
    spec.derived admits only mu >= 0, so no exponent is negative."""
    return divisibility_bound_infinity(spec.n, spec.d) * spec.derived.local_bound


def error_term(
    delta_m: CyclotomicFactorization, delta_u: CyclotomicFactorization
) -> CyclotomicFactorization:
    """Quotient of the boundary Alexander polynomial delta_m (the value of
    boundary_alexander) by delta_u squared.

    The quotient must exist when delta_u is the Alexander polynomial of the
    complement; its degree is even, which the report checks."""
    try:
        return delta_m.divide(delta_u**2)
    except NotDivisible as exc:
        raise NotDivisible(f"delta_U^2 does not divide delta_M: {exc}") from exc


def boundary_pairs_nonunipotent(spec: HypersurfaceSpec) -> SpectralPairTable:
    """Eigenvalue != 1 spectral pairs of the middle boundary Alexander module:
    the sum of the local tables and the table at infinity."""
    derived = spec.derived
    terms = ((derived.infinity, 1), (derived.local_pair_sum, 1))
    return table_sum(terms, nonunipotent=True)


def _curve_alpha0(spec: HypersurfaceSpec) -> tuple[int, int]:
    """Common eigenvalue-1 quantities for curves: the (0,0)/(1,1) count of the
    boundary and half-sum entering the (0,1)/(1,0) counts; validate keeps the
    genus term even and both nonnegative."""
    corner = spec.derived.branch_excess + spec.d - spec.components
    return corner, spec.derived.curve_genus // 2


def boundary_pairs_curve(spec: HypersurfaceSpec) -> SpectralPairTable:
    """Full spectral-pair table of the middle boundary Alexander module of a
    plane curve, determined by the local singularities.

    Eigenvalue 1: the (0,0) and (1,1) counts are branch excess + d - r, the
    (0,1) and (1,0) counts are (mu + 2r - d - 1 - branch excess)/2.
    Eigenvalue exp(2*pi*i*alpha), alpha > 0: the (0,1) count at alpha and the
    (1,0) count at 1 - alpha are the local (0,1) sum plus mhat(d, alpha) - 1;
    the (0,0) and (1,1) counts at alpha are the local (0,0) sum.
    """
    if spec.n != 1:
        raise ValueError("boundary_pairs_curve requires n = 1")
    corner, off = _curve_alpha0(spec)
    local = spec.derived.local_pair_sum
    den = lcm(local._den, spec.d)
    step = den // local._den
    groups = _eigenvalue_one_corners(corner, off)
    # the local keys are distinct and these have alpha > 0, unlike the
    # corners, so each key below is written once
    into, mirror = groups[0, 1], groups[1, 0]
    for k, c in local._groups.get((0, 1), {}).items():
        if k:
            k *= step
            into[k] = mirror[den - k] = c
    into, mirror = groups[0, 0], groups[1, 1]
    for k, c in local._groups.get((0, 0), {}).items():
        if k:
            into[k * step] = mirror[k * step] = c
    _add_mhat_excess(groups, spec.d, 1, den)
    return SpectralPairTable(den, {pq: group for pq, group in groups.items() if group})


def _eigenvalue_one_corners(corner: int, off: int) -> dict[tuple[int, int], dict]:
    """The four groups of a curve table, (0,0), (1,1), (0,1) and (1,0), with
    their eigenvalue-1 entries: corner in the first two, off in the others
    (none where zero).  A group may stay empty, so the caller drops the
    empty ones once it has filled them."""
    corners = {0: corner} if corner else {}
    offs = {0: off} if off else {}
    return {(0, 0): corners, (1, 1): dict(corners), (0, 1): offs, (1, 0): dict(offs)}


def _add_mhat_excess(groups: dict, m: int, count: int, den: int) -> None:
    """Add count * (mhat(m, alpha) - 1) at (0, 1, alpha) and at its mirror
    (1, 0, 1 - alpha), for all alpha in (0, 1), into the (0,1) and (1,0)
    groups of a table being built; den is a multiple of m.  The term is
    nonzero only at alpha = j/m, where it is j - 1."""
    step = den // m
    into, mirror = groups[0, 1], groups[1, 0]
    for j in range(2, m):
        k, c = j * step, (j - 1) * count
        into[k] = into.get(k, 0) + c
        mirror[den - k] = mirror.get(den - k, 0) + c


def boundary_pairs_arrangement(d: int, points) -> SpectralPairTable:
    """Full boundary table of a line arrangement from weak combinatorial data:
    the number of lines d and a sequence of its (multiplicity, count) runs.

    The (0,0) and (1,1) eigenvalue-1 counts are the sum of (m_i - 1); at angle
    alpha > 0 the (0,1)/(1,0) counts are sum of (mhat(m_i, alpha) - 1) plus
    mhat(d, alpha) - 1.
    """
    den = lcm(d, *(m for m, _ in points))
    groups = _eigenvalue_one_corners(sum((m - 1) * c for m, c in points), 0)
    for m, c in points:
        _add_mhat_excess(groups, m, c, den)
    _add_mhat_excess(groups, d, 1, den)
    return SpectralPairTable(den, {pq: group for pq, group in groups.items() if group})


def boundary_pairs_qhm(spec: HypersurfaceSpec) -> dict[int, SpectralPairTable]:
    """Eigenvalue-1 spectral pairs when the hypersurface is a rational homology
    manifold, resolved by weight.

    Only three weights occur, all read off the table at infinity: n + 1
    carries its eigenvalue-1 pairs; n carries the primitive middle Hodge
    numbers of a smooth hypersurface, the p-marginal of its eigenvalue != 1
    pairs, minus the local Hodge filtration dimensions; n - 1 carries the
    primitive cohomology of the section at infinity, whose Hodge numbers are
    h^{p+1,n-p} of the weight-(n+1) part at infinity.
    """
    if not spec.rational_homology_manifold:
        raise ValueError("spec is not flagged as a rational homology manifold")
    n, derived = spec.n, spec.derived
    top = derived.infinity.unipotent()
    middle = {(p, n - p): {0: c}
              for p, c in enumerate(middle_hodge_numbers(n, derived)) if c}
    # h^{0,n+1} and h^{n+1,0} at infinity vanish, so the shift loses nothing;
    # the shifted table shares the groups of top, which no code changes
    bottom = {(p - 1, q - 1): group for (p, q), group in top._groups.items()}
    return {
        n - 1: SpectralPairTable(1, bottom),
        n: SpectralPairTable(1, middle),
        n + 1: top,
    }


def flatten_weights(weighted: dict[int, SpectralPairTable]) -> SpectralPairTable:
    """Forget the weight grading, keeping (p, q, alpha) keys."""
    return table_sum((table, 1) for table in weighted.values())


def projective_curve_hodge(
    spec: HypersurfaceSpec,
) -> dict[str, dict[tuple[int, int, int], int]]:
    """Mixed Hodge numbers of the projective plane curve V ("projective") and
    of H_c of the affine curve ("compact_support"), keyed by (degree, p, q)
    with zero entries dropped, from degree, component count and local branch
    data."""
    if spec.n != 1:
        raise ValueError("projective_curve_hodge requires n = 1")
    r = spec.components
    excess = spec.derived.branch_excess
    corner, off = _curve_alpha0(spec)
    projective = {
        (0, 0, 0): 1,
        (1, 0, 0): excess + 1 - r,
        (1, 0, 1): off,
        (1, 1, 0): off,
        (2, 1, 1): r,
    }
    compact = {(1, 0, 0): corner, (1, 0, 1): off, (1, 1, 0): off, (2, 1, 1): r}
    return {
        "projective": {k: v for k, v in projective.items() if v},
        "compact_support": {k: v for k, v in compact.items() if v},
    }
