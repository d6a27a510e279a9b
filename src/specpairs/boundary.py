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

from collections import Counter
from math import lcm
from typing import TYPE_CHECKING

from .bounds import divisibility_bound_infinity, divisibility_bound_local
from .laurent import CyclotomicFactorization, NotDivisible
from .pairs import SpectralPairTable

if TYPE_CHECKING:
    from .model import HypersurfaceSpec


def boundary_alexander(spec: HypersurfaceSpec) -> CyclotomicFactorization:
    """Middle Alexander polynomial of the boundary manifold:

        (t-1)^((-1)^(n+1) + mu) * (t^d - 1)^xi * product of local polynomials,

    a concrete factorization of degree 2(d-1)^(n+1), with unit 1 and t^0.
    It is the product of the two divisibility bounds of the complement;
    spec.derived admits only mu >= 0, so no exponent is negative."""
    bound = divisibility_bound_infinity(spec.n, spec.d) * divisibility_bound_local(spec)
    return CyclotomicFactorization._from_parts(bound._factors)


def error_term(
    spec: HypersurfaceSpec, delta_u: CyclotomicFactorization
) -> CyclotomicFactorization:
    """Quotient of the boundary Alexander polynomial by delta_u squared, up
    to units: like delta_M, e(t) has unit 1 and t^0.

    The quotient must exist when delta_u is the Alexander polynomial of the
    complement; its degree is even, which the report checks."""
    delta_m = boundary_alexander(spec)
    square = CyclotomicFactorization._from_parts(delta_u._factors) ** 2
    try:
        quotient = delta_m.divide(square)
    except NotDivisible as exc:
        raise NotDivisible(f"delta_U^2 does not divide delta_M: {exc}") from exc
    return quotient


def boundary_pairs_nonunipotent(spec: HypersurfaceSpec) -> SpectralPairTable:
    """Eigenvalue != 1 spectral pairs of the middle boundary Alexander module:
    the sum of the local tables and the table at infinity."""
    derived = spec.derived
    return (derived.infinity + derived.local_pair_sum).nonunipotent()


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
    den, local = spec.derived.local_pair_sum._aligned(spec.d)
    entries = _eigenvalue_one_corners(corner, off)
    for (p, q, k), c in local.items():
        if k and (p, q) == (0, 1):
            _mirror_add(entries, k, c, den)
        elif k and (p, q) == (0, 0):
            entries[(0, 0, k)] = entries.get((0, 0, k), 0) + c
            entries[(1, 1, k)] = entries.get((1, 1, k), 0) + c
    _add_mhat_excess(entries, spec.d, 1, den)
    return SpectralPairTable._from_numerators(den, entries)


def _eigenvalue_one_corners(corner: int, off: int) -> dict[tuple[int, int, int], int]:
    """Eigenvalue-1 entries of a curve table: corner at (0,0) and (1,1), off
    at (0,1) and (1,0)."""
    entries = {}
    if corner:
        entries[(0, 0, 0)] = entries[(1, 1, 0)] = corner
    if off:
        entries[(0, 1, 0)] = entries[(1, 0, 0)] = off
    return entries


def _mirror_add(entries: dict, k: int, c: int, den: int) -> None:
    """Add c at (0, 1, k/den) and at its mirror (1, 0, 1 - k/den)."""
    entries[(0, 1, k)] = entries.get((0, 1, k), 0) + c
    entries[(1, 0, den - k)] = entries.get((1, 0, den - k), 0) + c


def _add_mhat_excess(entries: dict, m: int, count: int, den: int) -> None:
    """Add count * (mhat(m, alpha) - 1) at (0, 1, alpha), mirrored, for all
    alpha in (0, 1); den is a multiple of m.  The term is nonzero only at
    alpha = j/m, where it is j - 1."""
    step = den // m
    for j in range(2, m):
        _mirror_add(entries, j * step, (j - 1) * count, den)


def boundary_pairs_arrangement(d: int, multiplicities) -> SpectralPairTable:
    """Full boundary table of a line arrangement from weak combinatorial data:
    the number of lines d and the multiset of singular point multiplicities.

    The (0,0) and (1,1) eigenvalue-1 counts are the sum of (m_i - 1); at angle
    alpha > 0 the (0,1)/(1,0) counts are sum of (mhat(m_i, alpha) - 1) plus
    mhat(d, alpha) - 1.
    """
    counts = Counter(multiplicities)
    den = lcm(d, *counts)
    entries = _eigenvalue_one_corners(sum((m - 1) * c for m, c in counts.items()), 0)
    for m, c in counts.items():
        _add_mhat_excess(entries, m, c, den)
    _add_mhat_excess(entries, d, 1, den)
    return SpectralPairTable._from_numerators(den, entries)


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
    smooth = derived.infinity.nonunipotent().hodge_filtration_marginal()
    local_grf = dict(derived.local_grf)
    middle: dict[tuple[int, int, int], int] = {}
    for p in range(n + 1):
        c = smooth.get(p, 0) - local_grf.get(p, 0)
        if c:
            middle[(p, n - p, 0)] = c
    # h^{0,n+1} and h^{n+1,0} at infinity vanish, so the shift loses nothing
    bottom = {(p - 1, q - 1, 0): c for (p, q, _), c in top._aligned(1)[1].items()}
    return {
        n - 1: SpectralPairTable._from_numerators(1, bottom),
        n: SpectralPairTable._from_numerators(1, middle),
        n + 1: top,
    }


def flatten_weights(weighted: dict[int, SpectralPairTable]) -> SpectralPairTable:
    """Forget the weight grading, keeping (p, q, alpha) keys."""
    total = SpectralPairTable()
    for _, table in sorted(weighted.items()):
        total = total + table
    return total


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
