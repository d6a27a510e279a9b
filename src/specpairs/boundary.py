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

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .bounds import divisibility_bound_infinity, mhat
from .laurent import CyclotomicFactorization, NotDivisible
from .localsing import MissingLocalHodgeData
from .milnor import milnor_dim, smooth_primitive_middle, steenbrink_infinity
from .pairs import PairKey, SpectralPairTable

if TYPE_CHECKING:
    from .model import HypersurfaceSpec


class NegativeExponent(ValueError):
    """The Alexander polynomial of the boundary would need a negative exponent,
    signalling an inconsistent Milnor number budget."""


class OddDegree(ArithmeticError):
    """The error term came out with odd degree, which is impossible for
    consistent inputs."""


class ParityViolation(ValueError):
    """A curve Hodge number with a 1/2 factor is not an integer."""


class NegativeCount(ValueError):
    """A dimension formula evaluated to a negative number."""


@dataclass(frozen=True)
class BoundaryInvariants:
    """Bundle of middle-degree invariants of the boundary manifold."""

    delta_m: CyclotomicFactorization
    pairs_nonunipotent: SpectralPairTable
    pairs_unipotent: SpectralPairTable | None = None
    pairs_full: SpectralPairTable | None = None
    weight_resolved: dict[int, SpectralPairTable] | None = None


def boundary_alexander(spec: HypersurfaceSpec) -> CyclotomicFactorization:
    """Middle Alexander polynomial of the boundary manifold:

        (t-1)^((-1)^(n+1) + mu) * (t^d - 1)^xi * product of local polynomials,

    a concrete factorization of degree 2(d-1)^(n+1).  It is the product of the
    two divisibility bounds of the complement; a negative mu (local Milnor
    numbers over budget) surfaces as NegativeExponent."""
    result = (
        divisibility_bound_infinity(spec.n, spec.d)
        * CyclotomicFactorization(factors={1: spec.derived.mu}, formal=True)
        * spec.derived.local_alexander_product
    )
    if any(m < 0 for m in result.factors.values()):
        raise NegativeExponent(
            "boundary Alexander polynomial has a negative exponent; "
            "the Milnor number budget is inconsistent"
        )
    return CyclotomicFactorization(result.unit, result.t_power, result.factors)


def error_term(
    spec: HypersurfaceSpec, delta_u: CyclotomicFactorization
) -> CyclotomicFactorization:
    """Quotient of the boundary Alexander polynomial by delta_u squared.

    The quotient must exist when delta_u is the Alexander polynomial of the
    complement, and its degree is always even."""
    delta_m = boundary_alexander(spec)
    square = delta_u.canonical() ** 2
    try:
        quotient = delta_m.divide(square)
    except NotDivisible as exc:
        raise NotDivisible(
            f"delta_U^2 = {square} does not divide delta_M = {delta_m}"
        ) from exc
    if quotient.degree % 2:
        raise OddDegree(f"error term {quotient} has odd degree {quotient.degree}")
    return quotient


def boundary_pairs_nonunipotent(spec: HypersurfaceSpec) -> SpectralPairTable:
    """Eigenvalue != 1 spectral pairs of the middle boundary Alexander module:
    the sum of the local tables and the table at infinity."""
    infinity = steenbrink_infinity(spec.n, spec.d)
    return (infinity + spec.derived.local_pair_sum).nonunipotent()


def _curve_alpha0(spec: HypersurfaceSpec) -> tuple[int, int]:
    """Common eigenvalue-1 quantities for curves: the (0,0)/(1,1) count of the
    boundary and half-sum entering the (0,1)/(1,0) counts."""
    corner = spec.derived.branch_excess + spec.d - spec.components
    twice_genus = spec.derived.curve_genus
    if twice_genus < 0 or corner < 0:
        raise NegativeCount(
            f"curve Hodge numbers evaluated negative (corner {corner}, "
            f"doubled off-diagonal {twice_genus})"
        )
    if twice_genus % 2:
        raise ParityViolation(
            f"mu + 2r - d - 1 - branch excess = {twice_genus} must be even"
        )
    return corner, twice_genus // 2


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
    d = spec.d
    corner, off = _curve_alpha0(spec)
    entries: dict[PairKey, int] = {}
    if corner:
        entries[(0, 0, Fraction(0))] = corner
        entries[(1, 1, Fraction(0))] = corner
    if off:
        entries[(0, 1, Fraction(0))] = off
        entries[(1, 0, Fraction(0))] = off
    local_sum = spec.derived.local_pair_sum
    alphas = {alpha for (_, _, alpha) in local_sum.keys() if alpha > 0}
    alphas.update(Fraction(j, d) for j in range(1, d))
    for alpha in sorted(alphas):
        value = local_sum.get((0, 1, alpha)) + mhat(d, alpha) - 1
        if value:
            entries[(0, 1, alpha)] = entries.get((0, 1, alpha), 0) + value
            mirror = (1, 0, 1 - alpha)
            entries[mirror] = entries.get(mirror, 0) + value
        diagonal = local_sum.get((0, 0, alpha))
        if diagonal:
            entries[(0, 0, alpha)] = entries.get((0, 0, alpha), 0) + diagonal
            entries[(1, 1, alpha)] = entries.get((1, 1, alpha), 0) + diagonal
    return SpectralPairTable(entries)


def boundary_pairs_arrangement(d: int, multiplicities) -> SpectralPairTable:
    """Full boundary table of a line arrangement from weak combinatorial data:
    the number of lines d and the multiset of singular point multiplicities.

    The (0,0) and (1,1) eigenvalue-1 counts are the sum of (m_i - 1); at angle
    alpha > 0 the (0,1)/(1,0) counts are sum of (mhat(m_i, alpha) - 1) plus
    mhat(d, alpha) - 1.
    """
    mults = list(multiplicities)
    entries: dict[PairKey, int] = {}
    corner = sum(m - 1 for m in mults)
    if corner:
        entries[(0, 0, Fraction(0))] = corner
        entries[(1, 1, Fraction(0))] = corner
    alphas = {Fraction(j, d) for j in range(1, d)}
    alphas.update(Fraction(j, m) for m in mults for j in range(1, m))
    for alpha in sorted(alphas):
        value = sum(mhat(m, alpha) - 1 for m in mults) + mhat(d, alpha) - 1
        if value:
            entries[(0, 1, alpha)] = entries.get((0, 1, alpha), 0) + value
            mirror = (1, 0, 1 - alpha)
            entries[mirror] = entries.get(mirror, 0) + value
    return SpectralPairTable(entries)


def projective_space_hodge(big_n: int, k: int, p: int, q: int) -> int:
    """Hodge number h^{p,q} of H^k of complex projective big_n-space."""
    if 0 <= k <= 2 * big_n and k % 2 == 0 and p == q == k // 2:
        return 1
    return 0


def boundary_pairs_qhm(spec: HypersurfaceSpec) -> dict[int, SpectralPairTable]:
    """Eigenvalue-1 spectral pairs when the hypersurface is a rational homology
    manifold, resolved by weight.

    Only three weights occur: n + 1 carries the eigenvalue-1 pairs of the
    fiber at infinity; n carries the primitive middle Hodge numbers of a
    smooth hypersurface minus the local Hodge filtration dimensions; n - 1
    carries the primitive cohomology of the section at infinity, whose Hodge
    numbers are h^{p+1,n-p} of the weight-(n+1) part at infinity.
    """
    if not spec.rational_homology_manifold:
        raise ValueError("spec is not flagged as a rational homology manifold")
    n, d = spec.n, spec.d
    if spec.derived.local_grf is None:
        raise MissingLocalHodgeData("germs above curves need grF_dims")
    local_grf = dict(spec.derived.local_grf)
    top: dict[PairKey, int] = {}
    for p in range(n + 2):
        c = milnor_dim(n, d, p * d - n - 1)
        if c:
            top[(p, n + 1 - p, Fraction(0))] = c
    middle: dict[PairKey, int] = {}
    for p in range(n + 1):
        c = smooth_primitive_middle(n, d, p) - local_grf.get(p, 0)
        if c < 0:
            raise NegativeCount(
                f"local Hodge data exceeds the smooth hypersurface "
                f"numbers at filtration level {p}"
            )
        if c:
            middle[(p, n - p, Fraction(0))] = c
    bottom: dict[PairKey, int] = {}
    for p in range(n):
        c = milnor_dim(n, d, (p + 1) * d - n - 1)
        if c:
            bottom[(p, n - 1 - p, Fraction(0))] = c
    return {
        n - 1: SpectralPairTable(bottom),
        n: SpectralPairTable(middle),
        n + 1: SpectralPairTable(top),
    }


def flatten_weights(weighted: dict[int, SpectralPairTable]) -> SpectralPairTable:
    """Forget the weight grading, keeping (p, q, alpha) keys."""
    total = SpectralPairTable()
    for _, table in sorted(weighted.items()):
        total = total + table
    return total


def compute_boundary_invariants(spec: HypersurfaceSpec) -> BoundaryInvariants:
    """Assemble every boundary invariant the input allows.

    The full table is emitted for curves and for rational homology manifolds;
    otherwise only the Alexander polynomial and the non-unipotent table are
    exact and nothing else is claimed.
    """
    delta_m = boundary_alexander(spec)
    nonunip = boundary_pairs_nonunipotent(spec)
    unip = full = weighted = None
    if spec.rational_homology_manifold:
        weighted = boundary_pairs_qhm(spec)
    if spec.n == 1:
        full = boundary_pairs_curve(spec)
        unip = full.unipotent()
    elif weighted is not None:
        unip = flatten_weights(weighted)
        full = unip + nonunip
    return BoundaryInvariants(
        delta_m=delta_m,
        pairs_nonunipotent=nonunip,
        pairs_unipotent=unip,
        pairs_full=full,
        weight_resolved=weighted,
    )


@dataclass(frozen=True)
class ProjectiveCurveHodge:
    """Mixed Hodge numbers of the projective curve and of the compactly
    supported cohomology of the affine curve, keyed by (degree, p, q)."""

    projective: tuple[tuple[tuple[int, int, int], int], ...]
    compact_support: tuple[tuple[tuple[int, int, int], int], ...]

    def projective_map(self) -> dict[tuple[int, int, int], int]:
        return dict(self.projective)

    def compact_support_map(self) -> dict[tuple[int, int, int], int]:
        return dict(self.compact_support)


def projective_curve_hodge(spec: HypersurfaceSpec) -> ProjectiveCurveHodge:
    """Hodge numbers of the projective plane curve V and of H_c of the affine
    curve, from degree, component count and local branch data."""
    if spec.n != 1:
        raise ValueError("projective_curve_hodge requires n = 1")
    r = spec.components
    excess = spec.derived.branch_excess
    corner, off = _curve_alpha0(spec)
    if excess + 1 - r < 0:
        raise NegativeCount(
            f"branch excess {excess} cannot support {r} components"
        )
    projective = [
        ((0, 0, 0), 1),
        ((1, 0, 0), excess + 1 - r),
        ((1, 0, 1), off),
        ((1, 1, 0), off),
        ((2, 1, 1), r),
    ]
    compact = [
        ((1, 0, 0), corner),
        ((1, 0, 1), off),
        ((1, 1, 0), off),
        ((2, 1, 1), r),
    ]
    return ProjectiveCurveHodge(
        projective=tuple((k, v) for k, v in projective if v),
        compact_support=tuple((k, v) for k, v in compact if v),
    )
