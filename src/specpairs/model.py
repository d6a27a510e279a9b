"""Input data model: hypersurface descriptions, validation and derived numbers.

A hypersurface is described combinatorially: ambient dimension, degree,
component count, and a list of isolated singularity models with repetition
counts.  Inputs are structured JSON documents; polynomial coefficients are
never read and no symbolic geometry is performed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .laurent import CyclotomicFactorization
from .localsing import (
    Brieskorn,
    Explicit,
    LocalSingularity,
    MissingLocalHodgeData,
    Ordinary,
    alexander_alpha_marginal,
    branches,
    hodge_filtration_dims,
    local_alexander,
    local_pairs,
    milnor_number,
)
from .milnor import smooth_primitive_middle, xi_exponent
from .pairs import SpectralPairTable


class MalformedDocument(ValueError):
    """The input document is structurally invalid."""

    def __init__(self, errors):
        self.errors = list(errors) if isinstance(errors, (list, tuple)) else [errors]
        super().__init__("; ".join(str(e) for e in self.errors))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: str = "error"  # "error" or "warning"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass(frozen=True)
class HypersurfaceSpec:
    """Combinatorial description of an affine degree-d hypersurface in C^(n+1),
    transversal at infinity, with isolated singularities."""

    n: int
    d: int
    components: int
    singularities: tuple[tuple[LocalSingularity, int], ...] = ()
    line_arrangement: bool = False
    rational_homology_manifold: bool = False
    delta_u: CyclotomicFactorization | None = None
    h_d: tuple[tuple[int, int, int], ...] | None = None  # rows (p, q, count)

    @cached_property
    def derived(self) -> Derived:
        """The quantities derived from this spec, computed on first access."""
        return derived_quantities(self)


@dataclass(frozen=True)
class Derived:
    """Quantities determined by the combinatorial input, each computed once
    per spec; the per-germ tuples follow the order of spec.singularities."""

    mu: int  # (d-1)^(n+1) - sum of local Milnor numbers
    xi: int  # ((d-1)^(n+1) + (-1)^n) / d
    branch_excess: int  # sum over singular points of (local branch count - 1)
    local_pairs: tuple[SpectralPairTable, ...]
    local_alexander: tuple[CyclotomicFactorization, ...]
    local_pair_sum: SpectralPairTable  # count-weighted sum of local_pairs
    local_alexander_product: CyclotomicFactorization  # with counts as powers
    # line arrangements only: descending, one per ordinary point
    ordinary_multiplicities: tuple[int, ...] | None = None
    b1: int | None = None  # first Betti number of the boundary (curves only)
    j1: int | None = None  # eigenvalue-1 Jordan block count (curves only)
    curve_genus: int | None = None  # mu + 2r - d - 1 - branch excess (curves only)
    # RHM with grF data: sorted (p, sum of dim Gr_F^p) pairs
    local_grf: tuple[tuple[int, int], ...] | None = None


def _local_milnor_total(spec: HypersurfaceSpec) -> int:
    return sum(milnor_number(s) * count for s, count in spec.singularities)


def derived_quantities(spec: HypersurfaceSpec) -> Derived:
    """Derive every per-spec quantity; callers read it as spec.derived.

    Its cost grows with the singularity counts and the local Milnor numbers,
    so validate reads it only once their total is within (d-1)^(n+1)."""
    n, d, r = spec.n, spec.d, spec.components
    sings = spec.singularities
    mu = (d - 1) ** (n + 1) - _local_milnor_total(spec)
    excess = sum((branches(s) - 1) * c for s, c in sings)
    pairs = tuple(local_pairs(s) for s, _ in sings)
    alexander = tuple(local_alexander(s) for s, _ in sings)
    pair_sum = SpectralPairTable()
    alexander_product = CyclotomicFactorization()
    for (_, count), table, poly in zip(sings, pairs, alexander):
        pair_sum = pair_sum + table * count
        alexander_product = alexander_product * poly**count
    mults = tuple(sorted(
        (s.multiplicity for s, c in sings if isinstance(s, Ordinary) for _ in range(c)),
        reverse=True,
    )) if spec.line_arrangement else None
    grf: tuple[tuple[int, int], ...] | None = None
    if spec.rational_homology_manifold:
        try:
            sums: dict[int, int] = {}
            for s, count in sings:
                for p, v in hodge_filtration_dims(s, n).items():
                    sums[p] = sums.get(p, 0) + v * count
            grf = tuple(sorted(sums.items()))
        except MissingLocalHodgeData:
            pass
    b1 = j1 = genus = None
    if n == 1:
        b1, j1, genus = 2 * r + mu - 1, 2 * r + mu - 2, mu + 2 * r - d - 1 - excess
    return Derived(
        mu=mu,
        xi=xi_exponent(n, d),
        branch_excess=excess,
        local_pairs=pairs,
        local_alexander=alexander,
        local_pair_sum=pair_sum,
        local_alexander_product=alexander_product,
        ordinary_multiplicities=mults,
        b1=b1,
        j1=j1,
        curve_genus=genus,
        local_grf=grf,
    )


def shared_line_violations(d: int, multiplicities) -> list[tuple[int, int]]:
    """Pairs of multiplicities that cannot coexist on d lines.

    Two distinct points lie on at most one common line, so any two singular
    points of multiplicities (a, b) force a + b - 1 <= d.
    """
    mults = sorted(multiplicities, reverse=True)
    bad = []
    for i in range(len(mults)):
        for j in range(i + 1, len(mults)):
            if mults[i] + mults[j] - 1 > d:
                bad.append((mults[i], mults[j]))
    return bad


def _validate_explicit(s: Explicit, n: int, out: list[Violation]) -> None:
    where = f"explicit singularity (mu={s.milnor})"
    if s.alexander.degree != s.milnor:
        out.append(
            Violation(
                "explicit_inconsistent",
                f"{where}: local Alexander degree {s.alexander.degree} "
                f"differs from Milnor number {s.milnor}",
            )
        )
    if s.pairs.total_dim() != s.milnor:
        out.append(
            Violation(
                "explicit_inconsistent",
                f"{where}: pair table mass {s.pairs.total_dim()} "
                f"differs from Milnor number {s.milnor}",
            )
        )
    if n == 1:
        unipotent = s.pairs.unipotent().total_dim()
        if unipotent != s.branches - 1:
            out.append(
                Violation(
                    "explicit_inconsistent",
                    f"{where}: eigenvalue-1 mass {unipotent} must equal "
                    f"branches - 1 = {s.branches - 1} for curve germs",
                )
            )
    if s.pairs.conjugate() != s.pairs:
        out.append(
            Violation(
                "explicit_inconsistent",
                f"{where}: pair table is not conjugation-symmetric",
            )
        )
    nonunip = s.pairs.nonunipotent()
    if nonunip.level_dual(n) != nonunip:
        out.append(
            Violation(
                "explicit_inconsistent",
                f"{where}: eigenvalue != 1 part is not self-dual at level {n}",
            )
        )
    if alexander_alpha_marginal(s.alexander) != s.pairs.alpha_marginal():
        out.append(
            Violation(
                "explicit_inconsistent",
                f"{where}: eigenvalues of the local Alexander polynomial differ "
                f"from the eigenvalue marginal of the pair table",
            )
        )


def validate(spec: HypersurfaceSpec) -> list[Violation]:
    """All invariant violations of a spec; empty iff the spec is usable.

    Entries with severity "warning" (the realizability heuristic) do not block
    computation.
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
    if n >= 2:
        if r != 1:
            out.append(
                Violation(
                    "multi_component",
                    "a hypersurface of dimension >= 2 with isolated "
                    "singularities is irreducible; components must be 1",
                )
            )
        for s, _ in spec.singularities:
            if not isinstance(s, Explicit):
                out.append(
                    Violation(
                        "builtin_dimension",
                        "built-in singularity models are plane-curve germs; "
                        "ambient dimension above curves requires explicit data",
                    )
                )
                break
    for s, _ in spec.singularities:
        if isinstance(s, Explicit):
            _validate_explicit(s, n, out)
    global_milnor = (d - 1) ** (n + 1)
    local_milnor = _local_milnor_total(spec)
    if local_milnor > global_milnor:
        out.append(
            Violation(
                "negative_mu",
                f"local Milnor numbers total {local_milnor} > "
                f"(d-1)^(n+1) = {global_milnor}",
            )
        )
        return out
    derived = spec.derived
    if spec.line_arrangement:
        if n != 1:
            out.append(
                Violation("line_arrangement_shape", "line arrangements require n = 1")
            )
        if r != d:
            out.append(
                Violation(
                    "line_arrangement_shape",
                    f"a line arrangement of degree {d} has {d} components, got {r}",
                )
            )
        non_ordinary = [
            s for s, _ in spec.singularities if not isinstance(s, Ordinary)
        ]
        if non_ordinary:
            out.append(
                Violation(
                    "line_arrangement_shape",
                    "line arrangement singularities must all be ordinary points",
                )
            )
        elif n == 1:
            mults = derived.ordinary_multiplicities
            have = sum(comb(m, 2) for m in mults)
            want = comb(d, 2)
            if have != want:
                out.append(
                    Violation(
                        "pair_count",
                        f"multiplicities {mults} account for {have} line pairs, "
                        f"but C({d},2) = {want}",
                    )
                )
            if any(m > d for m in mults):
                out.append(
                    Violation(
                        "pair_count", f"a multiplicity exceeds the line count {d}"
                    )
                )
            for a, b in shared_line_violations(d, mults):
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
                    f"branch excess {excess} cannot support {r} components "
                    f"(h^(0,0) of the projective curve would be negative)",
                )
            )
        if genus2 < 0:
            out.append(
                Violation(
                    "negative_count",
                    f"mu + 2r - d - 1 - branch excess = {genus2} is negative",
                )
            )
        elif genus2 % 2:
            out.append(
                Violation(
                    "parity_violation",
                    f"mu + 2r - d - 1 - branch excess = {genus2} must be even",
                )
            )
    if spec.rational_homology_manifold:
        if n == 1 and r != 1:
            out.append(
                Violation(
                    "rhm_inconsistent",
                    "a rational homology manifold curve is irreducible",
                )
            )
        for table in derived.local_pairs:
            unipotent_mass = table.unipotent().total_dim()
            if unipotent_mass:
                out.append(
                    Violation(
                        "rhm_inconsistent",
                        "rational homology manifolds admit no eigenvalue-1 "
                        "local Milnor cohomology; found a germ with "
                        f"unipotent mass {unipotent_mass}",
                    )
                )
                break
        grf = derived.local_grf
        over = [p for p, v in grf or ()
                if 0 <= p <= n and v > smooth_primitive_middle(n, d, p)]
        if grf is None or over:
            out.append(
                Violation(
                    "rhm_inconsistent",
                    "germs above curves need Hodge filtration dimensions (grF_dims)"
                    if grf is None
                    else "local Hodge data exceeds the smooth hypersurface "
                    f"numbers at filtration level {over[0]}",
                )
            )
    return out


def hard_violations(violations) -> list[Violation]:
    return [v for v in violations if v.severity == "error"]


# ---------------------------------------------------------------------------
# Document parsing and serialization


def _parse_singularity(entry, errors) -> tuple[LocalSingularity, int] | None:
    if not isinstance(entry, dict):
        errors.append(f"singularity entry must be an object, got {type(entry)}")
        return None
    kind = entry.get("kind")
    count = entry.get("count", 1)
    if not isinstance(count, int) or isinstance(count, bool):
        errors.append(f"singularity count must be an integer, got {count!r}")
        return None
    try:
        if kind == "ordinary":
            return Ordinary(int(entry["multiplicity"])), count
        if kind == "brieskorn":
            a, b = entry["exponents"]
            return Brieskorn(int(a), int(b)), count
        if kind == "explicit":
            grf = entry.get("grF_dims")
            grf_rows = (
                tuple((int(p), int(v)) for p, v in grf) if grf is not None else None
            )
            return (
                Explicit(
                    milnor=int(entry["milnor_number"]),
                    branches=int(entry["branches"]),
                    alexander=CyclotomicFactorization.from_dict(entry["alexander"]),
                    pairs=SpectralPairTable.from_rows(entry["spectral_pairs"]),
                    grf_dims=grf_rows,
                ),
                count,
            )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"bad {kind!r} singularity entry: {exc}")
        return None
    errors.append(f"unknown singularity kind {kind!r}")
    return None


def parse_spec(document: str | dict) -> HypersurfaceSpec:
    """Parse and structurally check an input document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MalformedDocument("top-level document must be an object")
    errors: list[str] = []
    ambient = document.get("ambient_dim")
    degree = document.get("degree")
    components = document.get("components")
    for name, value in (
        ("ambient_dim", ambient),
        ("degree", degree),
        ("components", components),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{name} must be an integer, got {value!r}")
    if errors:
        raise MalformedDocument(errors)
    sings: list[tuple[LocalSingularity, int]] = []
    for entry in document.get("singularities", []):
        parsed = _parse_singularity(entry, errors)
        if parsed is not None:
            sings.append(parsed)
    delta_u = None
    if document.get("delta_U") is not None:
        try:
            delta_u = CyclotomicFactorization.from_dict(document["delta_U"])
        except (TypeError, ValueError, KeyError) as exc:
            errors.append(f"bad delta_U: {exc}")
    h_d = None
    if document.get("hD") is not None:
        try:
            h_d = tuple(
                (int(p), int(q), int(c)) for p, q, c in document["hD"]
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"bad hD rows: {exc}")
    if errors:
        raise MalformedDocument(errors)
    return HypersurfaceSpec(
        n=ambient - 1,
        d=degree,
        components=components,
        singularities=tuple(sings),
        line_arrangement=bool(document.get("line_arrangement", False)),
        rational_homology_manifold=bool(
            document.get("rational_homology_manifold", False)
        ),
        delta_u=delta_u,
        h_d=h_d,
    )


def _serialize_singularity(s: LocalSingularity, count: int) -> dict:
    if isinstance(s, Ordinary):
        return {"kind": "ordinary", "multiplicity": s.multiplicity, "count": count}
    if isinstance(s, Brieskorn):
        return {"kind": "brieskorn", "exponents": [s.a, s.b], "count": count}
    out = {
        "kind": "explicit",
        "milnor_number": s.milnor,
        "branches": s.branches,
        "alexander": s.alexander.to_dict(),
        "spectral_pairs": s.pairs.to_rows(),
        "count": count,
    }
    if s.grf_dims is not None:
        out["grF_dims"] = [[p, v] for p, v in s.grf_dims]
    return out


def serialize_spec(spec: HypersurfaceSpec) -> dict:
    """Inverse of parse_spec, up to JSON round trip."""
    out = {
        "ambient_dim": spec.n + 1,
        "degree": spec.d,
        "components": spec.components,
        "line_arrangement": spec.line_arrangement,
        "rational_homology_manifold": spec.rational_homology_manifold,
        "singularities": [
            _serialize_singularity(s, c) for s, c in spec.singularities
        ],
    }
    if spec.delta_u is not None:
        out["delta_U"] = spec.delta_u.to_dict()
    if spec.h_d is not None:
        out["hD"] = [[p, q, c] for p, q, c in spec.h_d]
    return out
