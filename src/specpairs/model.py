"""Input data model: hypersurface descriptions, validation and derived numbers.

A hypersurface is described combinatorially: ambient dimension, degree,
component count (a curve of degree d with d components is d lines), and
isolated singularity models with counts.  Inputs are JSON documents;
polynomial coefficients are never read and no symbolic geometry is performed.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import comb
from typing import NamedTuple

from .laurent import (
    CyclotomicFactorization,
    parse_array,
    parse_flag,
    parse_integer,
    parse_keyed,
)
from .localsing import KINDS, LocalSingularity, frozen
from .milnor import steenbrink_infinity, xi_exponent
from .pairs import SpectralPairTable, table_sum


class MalformedDocument(ValueError):
    """The input document is structurally invalid."""

    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [errors]
        super().__init__("; ".join(str(e) for e in self.errors))


class Violation(NamedTuple):
    code: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


class InvalidSpec(ValueError):
    """The spec fails validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class _SpecFields(NamedTuple):
    n: int
    d: int
    components: int
    singularities: tuple[tuple[LocalSingularity, int], ...] = ()
    rational_homology_manifold: bool = False
    delta_u: CyclotomicFactorization | None = None
    h_d: tuple[tuple[int, int, int], ...] | None = None  # rows (p, q, count)


class HypersurfaceSpec(_SpecFields):
    """Combinatorial description of an affine degree-d hypersurface in C^(n+1),
    transversal at infinity, with isolated singularities.  A frozen value:
    what is made from it is kept in the __dict__ of this tuple subclass."""

    __setattr__ = __delattr__ = frozen

    @property
    def line_arrangement(self) -> bool:
        """d lines: each of the d components has degree >= 1, and they sum to d."""
        return self.n == 1 and self.components == self.d

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate(self) as a tuple, run once per spec: no caller can empty it."""
        return tuple(validate(self))

    @cached_property
    def derived(self) -> Derived:
        """The quantities derived from this spec, computed on first access.

        This is the one gate of the pipeline: it raises InvalidSpec with the
        errors among self.violations, so every route reading it computes
        only from valid specs."""
        errors = [v for v in self.violations if v.severity == "error"]
        if errors:
            raise InvalidSpec(errors)
        return self._unchecked

    @cached_property
    def _unchecked(self) -> Derived:
        """The derived quantities without the gate, for validate itself."""
        return derived_quantities(self)

    @cached_property
    def _local_milnor_total(self) -> int:
        """The count-weighted sum of the local Milnor numbers."""
        return sum(s.milnor * count for s, count in self.singularities)


class Derived(NamedTuple):
    """Quantities determined by the combinatorial input, each computed once
    per spec; each germ's own data is read off the germ."""

    mu: int  # (d-1)^(n+1) - sum of local Milnor numbers
    xi: int  # ((d-1)^(n+1) + (-1)^n) / d
    branch_excess: int  # sum over singular points of (local branch count - 1)
    local_pair_sum: SpectralPairTable  # count-weighted sum of the germs' pairs
    # the local divisibility bound: (t-1)^mu times the germs' Alexander
    # polynomials with counts as powers
    local_bound: CyclotomicFactorization
    infinity: SpectralPairTable  # the table at infinity, steenbrink_infinity(n, d)
    b1: int | None = None  # first Betti number of the boundary (curves only)
    j1: int | None = None  # eigenvalue-1 Jordan block count (curves only)
    curve_genus: int | None = None  # mu + 2r - d - 1 - branch excess (curves only)


def derived_quantities(spec: HypersurfaceSpec) -> Derived:
    """Derive every per-spec quantity, unchecked; callers read it as
    spec.derived, which validates first.

    Its cost grows with the singularity counts and the local Milnor numbers,
    so validate reads it only within the work and Milnor budgets."""
    n, d, r = spec.n, spec.d, spec.components
    sings = spec.singularities
    mu = (d - 1) ** (n + 1) - spec._local_milnor_total
    excess = sum((s.branches - 1) * c for s, c in sings)
    pair_sum = table_sum((s.pairs, count) for s, count in sings)
    bound = {1: mu}
    for s, count in sings:
        for k, m in s.alexander._factors.items():
            bound[k] = bound.get(k, 0) + m * count
    b1 = j1 = genus = None
    if n == 1:
        b1, j1, genus = 2 * r + mu - 1, 2 * r + mu - 2, mu + 2 * r - d - 1 - excess
    return Derived(
        mu=mu,
        xi=xi_exponent(n, d),
        branch_excess=excess,
        local_pair_sum=pair_sum,
        local_bound=CyclotomicFactorization(bound),
        infinity=steenbrink_infinity(n, d),
        b1=b1,
        j1=j1,
        curve_genus=genus,
    )


def middle_hodge_numbers(n: int, derived: Derived) -> list[int]:
    """h^{p,n-p} for p = 0..n of weight n in the eigenvalue-1 part of a
    rational homology manifold: the smooth hypersurface's numbers, the
    p-marginal of the eigenvalue != 1 pairs at infinity, minus the summed
    local dim Gr_F^p, the p-marginal of local_pair_sum."""
    smooth = derived.infinity.nonunipotent().hodge_filtration_marginal()
    local = derived.local_pair_sum.hodge_filtration_marginal()
    return [smooth.get(p, 0) - local.get(p, 0) for p in range(n + 1)]


def shared_line_violations(d: int, points) -> list[tuple[int, int]]:
    """Pairs of multiplicities that cannot coexist on d lines, one per pair
    of points, from (multiplicity, count) runs in any order.

    Two distinct points lie on at most one common line, so any two singular
    points of multiplicities (a, b) force a + b - 1 <= d.
    """
    runs = sorted(points, reverse=True)
    bad = []
    # Descending order: once a partner fits, every later one does, and once
    # two points of the largest remaining multiplicity fit, every pair does.
    for i, (a, count) in enumerate(runs):
        if 2 * a - 1 <= d:
            break
        later = []
        for b, c in runs[i + 1:]:
            if a + b - 1 <= d:
                break
            later += [(a, b)] * c
        for j in reversed(range(count)):  # each point with the j after it
            bad += [(a, a)] * j + later
    return bad


# The largest _work_estimate that validate admits.  A unit is about a
# microsecond of `compute --format structured` (Python 3.11, one core).  The
# largest estimate among the test, golden and benchmark documents is
# 6.4 * 10^6, an Ordinary(10^5) germ that the Milnor budget then rejects;
# the largest that gets a report is 6 * 10^5, 4,500 lines through a point.
WORK_BUDGET = 10**7


def _work_estimate(spec: HypersurfaceSpec) -> int:
    """The work a spec asks for, in closed form and without deriving
    anything: the tables at infinity, each germ's own price (`work`) and,
    for line arrangements, the expanded point list."""
    n, d, lines = spec.n, spec.d, spec.line_arrangement
    # (n+1)(d-1) entries at infinity, priced as an inclusion-exclusion over
    # n+2 binomials each.  steenbrink_infinity reads them off the spectrum
    # of the Fermat germ, made in n+1 passes of the spectrum engine, so for
    # large n the estimate overstates the table's cost; it stays as it is so
    # that the budget refuses the same documents.
    work = (n + 1) * (d - 1) * (32 + (n + 2) * (1 + n // 128))
    for s, count in spec.singularities:
        work += s.work + (count if lines else 0)
    return work


def validate(spec: HypersurfaceSpec) -> list[Violation]:
    """All invariant violations of a spec; empty iff the spec is usable.

    Entries with severity "warning" (the realizability heuristic) do not block
    computation.  Pipeline code reads spec.violations, which runs this once
    per spec.  Messages print document integers and numbers bounded by the
    work budget only: a sum or product of document integers may have more
    digits than str converts.
    """
    out: list[Violation] = []
    n, d, r = spec.n, spec.d, spec.components
    if n < 0:
        out.append(Violation("ambient_dim", f"ambient dimension n+1 = {n + 1} < 1"))
    if d < 2:
        out.append(Violation("degree", f"degree {d} < 2"))
    if r < 1:
        out.append(Violation("components", f"component count {r} < 1"))
    for s, count in spec.singularities:
        if count < 1:
            out.append(
                Violation("count_nonpositive", f"singularity count {count} < 1")
            )
    if out:
        return out
    if r > d:
        out.append(
            Violation("too_many_components", f"{r} components exceed the degree {d}")
        )
    hodge_types: set[tuple[int, int]] = set()
    for p, q, count in spec.h_d or ():
        if not (0 <= p <= n + 1 and 0 <= q <= n + 1):
            out.append(Violation("hd_hodge_type", f"hD row {[p, q, count]} has a "
                                 f"Hodge type outside 0 <= p, q <= n + 1, n = {n}"))
        if count < 0:
            out.append(
                Violation(
                    "negative_hd", f"hD row {[p, q, count]} has a negative count"
                )
            )
        if (p, q) in hodge_types:
            out.append(
                Violation("repeated_hd", f"hD row {[p, q, count]} repeats a Hodge type")
            )
        hodge_types.add((p, q))
    if n >= 2 and r != 1:
        out.append(
            Violation(
                "multi_component",
                "a hypersurface of dimension >= 2 with isolated "
                "singularities is irreducible; components must be 1",
            )
        )
    # the germ kinds' own dimensions; at n = 0 zero_dimensional refuses any germ
    if n and not all(s.admits(n) for s, _ in spec.singularities):
        out.append(
            Violation(
                "builtin_dimension",
                "built-in singularity models are plane-curve germs; "
                "ambient dimension above curves requires explicit data",
            )
        )
    if n == 0 and spec.singularities:
        out.append(
            Violation(
                "zero_dimensional",
                "a hypersurface in C^1 is d simple roots and has no singular "
                "points; singularities must be empty",
            )
        )
    if n == 0 and r < d:  # r > d is too_many_components
        out.append(Violation("zero_dimensional", "a hypersurface in C^1 is d simple "
                             f"roots, so it has {d} components, not {r}"))
    if _work_estimate(spec) > WORK_BUDGET:
        # the estimate itself may have too many digits to print
        out.append(
            Violation(
                "budget_exceeded",
                f"the estimated work exceeds the budget of {WORK_BUDGET} units "
                "(about 10 s)",
            )
        )
        return out
    out.extend(Violation(*rule) for s, _ in spec.singularities for rule in s.check(n))
    global_milnor = (d - 1) ** (n + 1)
    if spec._local_milnor_total > global_milnor:
        out.append(
            Violation(
                "negative_mu",
                "local Milnor numbers total more than "
                f"(d-1)^(n+1) = {global_milnor}",
            )
        )
        return out
    derived = spec._unchecked
    if spec.line_arrangement:
        # lines meet transversally in ordinary m-fold points: germs of m
        # branches and Milnor number (m - 1)^2, of whatever kind
        if any(s.milnor != (s.branches - 1) ** 2 for s, _ in spec.singularities):
            out.append(
                Violation(
                    "line_arrangement_shape",
                    "line arrangement singularities must all be ordinary points",
                )
            )
        else:
            points = [(s.branches, c) for s, c in spec.singularities]
            have = sum(comb(m, 2) * c for m, c in points)
            want = comb(d, 2)
            if have != want:
                points.sort(reverse=True)
                mults = tuple(m for m, c in points for _ in range(c))
                out.append(
                    Violation(
                        "pair_count",
                        f"multiplicities {mults} account for {have} line pairs, "
                        f"but C({d},2) = {want}",
                    )
                )
            for a, b in shared_line_violations(d, points):
                out.append(
                    Violation(
                        "shared_line",
                        f"points of multiplicities {a} and {b} would need to "
                        f"share {a + b - d} lines; weak data is possibly "
                        "unrealizable",
                        severity="warning",
                    )
                )
    if n == 1:
        excess, genus2 = derived.branch_excess, derived.curve_genus
        if excess + 1 - r < 0:
            out.append(
                Violation(
                    "negative_count",
                    f"the branch excess cannot support {r} components "
                    "(h^(0,0) of the projective curve would be negative)",
                )
            )
        genus_term = "mu + 2r - d - 1 - branch excess"
        if genus2 < 0:
            out.append(Violation("negative_count", f"{genus_term} is negative"))
        elif genus2 % 2:
            out.append(Violation("parity_violation", f"{genus_term} must be even"))
    if spec.rational_homology_manifold:
        if n == 1 and r != 1:
            out.append(
                Violation(
                    "rhm_inconsistent",
                    "a rational homology manifold curve is irreducible",
                )
            )
        if any(s.pairs.unipotent_dim() for s, _ in spec.singularities):
            out.append(
                Violation(
                    "rhm_inconsistent",
                    "rational homology manifolds admit no eigenvalue-1 "
                    "local Milnor cohomology; found a germ with eigenvalue-1 pairs",
                )
            )
        over = [p for p, c in enumerate(middle_hodge_numbers(n, derived)) if c < 0]
        if over:
            out.append(
                Violation(
                    "rhm_inconsistent",
                    "local Hodge data exceeds the smooth hypersurface "
                    f"numbers at filtration level {over[0]}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Document parsing and serialization


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is an error (which
    parse_spec reports as invalid JSON), not an overwrite by its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} is given twice")
    return obj


def parse_spec(document: str | dict) -> HypersurfaceSpec:
    """Parse and structurally check an input document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # too deep or too long
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MalformedDocument("top-level document must be an object")
    errors: list[str] = []

    def read(name, reader, default=None):
        """reader(document[name]), reading default when the name is absent;
        a value the reader rejects goes to errors and reads as None."""
        try:
            return reader(document.get(name, default))
        except (TypeError, ValueError) as exc:
            errors.append(f"bad {name}: {exc}")

    ambient, degree, components = (
        read(name, parse_integer) for name in ("ambient_dim", "degree", "components")
    )
    # d components of a plane curve are d lines: a given flag must say so
    lines = ambient == 2 and components == degree
    given = read("line_arrangement", parse_flag, lines)
    if given not in (None, lines) and None not in (ambient, degree, components):
        errors.append(f"bad line_arrangement: got {json.dumps(given)}, but "
                      f"ambient_dim, degree and components make it {json.dumps(lines)}")
    rhm = read("rational_homology_manifold", parse_flag, False)
    sings: list[tuple[LocalSingularity, int]] = []
    # an entry's kind first, then its keys, its count and its kind's own fields
    for entry in read("singularities", parse_array, []) or []:
        if not isinstance(entry, dict):
            errors.append(f"singularity entry must be an object, got {type(entry)}")
            continue
        kind = entry.get("kind")
        germ = KINDS.get(kind) if isinstance(kind, str) else None
        if germ is None:
            errors.append(f"unknown singularity kind {kind!r}")
            continue
        try:
            unknown = sorted(entry.keys() - germ.entry_keys - {"kind", "count"})
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
            count = parse_integer(entry.get("count", 1))
            sings.append((germ.from_entry(entry), count))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"bad {kind!r} singularity entry: {exc}")
    # delta_U and hD are optional: null reads as absent
    delta_u = read(
        "delta_U",
        lambda v: None if v is None else CyclotomicFactorization.from_dict(v),
    )
    h_d = read("hD", lambda v: None if v is None else parse_keyed(v, 3, "Hodge type"))
    if errors:
        raise MalformedDocument(errors)
    return HypersurfaceSpec(
        n=ambient - 1,
        d=degree,
        components=components,
        singularities=tuple(sings),
        rational_homology_manifold=rhm,
        delta_u=delta_u,
        h_d=h_d,
    )


def serialize_spec(spec: HypersurfaceSpec) -> dict:
    """Inverse of parse_spec, up to JSON round trip."""
    out = {
        "ambient_dim": spec.n + 1,
        "degree": spec.d,
        "components": spec.components,
        "line_arrangement": spec.line_arrangement,
        "rational_homology_manifold": spec.rational_homology_manifold,
        "singularities": [
            {"kind": s.kind, **s.to_entry(), "count": c} for s, c in spec.singularities
        ],
    }
    if spec.delta_u is not None:
        out["delta_U"] = spec.delta_u.to_dict()
    if spec.h_d is not None:
        out["hD"] = [[p, q, c] for p, q, c in spec.h_d]
    return out
