"""Assembly of the full invariant report with every cross-check.

A report computes all invariants the input supports and then verifies the
identities tying them together: the degree of the boundary Alexander
polynomial, symmetry of every emitted table, agreement of independent
computation routes, and consistency between bounds.  An identity-class check
failing means a bug (or a genuinely inconsistent identity), while an
input-class check failing means user-supplied data (such as delta_U) is
inconsistent with the rest of the input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import boundary, bounds
from .laurent import CyclotomicFactorization, NotDivisible
from .localsing import branches, milnor_number
from .model import (
    Derived,
    HypersurfaceSpec,
    Violation,
    hard_violations,
    serialize_spec,
    validate,
)
from .pairs import SpectralPairTable


class InvalidSpec(ValueError):
    """The spec fails validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    kind: str  # "identity": internal cross-check; "input": user data consistency
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}{detail}"


@dataclass
class InvariantReport:
    spec: HypersurfaceSpec
    derived: Derived
    delta_m: CyclotomicFactorization
    divisibility_infinity: CyclotomicFactorization
    divisibility_local: CyclotomicFactorization
    bound_complement: bounds.BoundTable
    pairs_nonunipotent: SpectralPairTable
    checks: list[Check]
    warnings: list[Violation] = field(default_factory=list)
    bound_curve: bounds.BoundTable | None = None
    bound_arrangement: bounds.BoundTable | None = None
    error_term: CyclotomicFactorization | None = None
    pairs_unipotent: SpectralPairTable | None = None
    pairs_full: SpectralPairTable | None = None
    weight_resolved: dict[int, SpectralPairTable] | None = None
    pairs_arrangement: SpectralPairTable | None = None
    projective_hodge: boundary.ProjectiveCurveHodge | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self, kind: str | None = None) -> list[Check]:
        return [
            c
            for c in self.checks
            if not c.passed and (kind is None or c.kind == kind)
        ]


def _check_tables_conjugation(tables: dict[str, SpectralPairTable]) -> Check:
    bad = [name for name, t in tables.items() if t.conjugate() != t]
    return Check(
        "conjugation_symmetry",
        not bad,
        "identity",
        "all emitted tables" if not bad else f"asymmetric: {', '.join(bad)}",
    )


def _check_level_duality(
    n: int,
    nonunip: SpectralPairTable,
    full: SpectralPairTable | None,
    weighted: dict[int, SpectralPairTable] | None,
) -> Check:
    bad: list[str] = []
    if nonunip.level_dual(n) != nonunip:
        bad.append("nonunipotent")
    if full is not None and full.level_dual(n) != full:
        bad.append("full")
    if weighted is not None:
        for w, table in weighted.items():
            if table.level_dual(n) != weighted[2 * n - w]:
                bad.append(f"weight {w}")
    return Check(
        "level_duality",
        not bad,
        "identity",
        f"self-dual at level {n}" if not bad else f"broken: {', '.join(bad)}",
    )


def _check_bound_consistency(
    spec: HypersurfaceSpec,
    complement: bounds.BoundTable,
    curve: bounds.BoundTable | None,
    arrangement: bounds.BoundTable | None,
) -> Check:
    problems: list[str] = []
    if curve is not None:
        for key, value in complement.items():
            if key[2] > 0:
                cap = curve.bound_at(key)
                if value > cap:
                    problems.append(f"complement {key} > curve bound {cap}")
        r_minus_1 = spec.components - 1
        cap = complement.bound_at((1, 1, Fraction(0)))
        if r_minus_1 > cap:
            problems.append("exact (1,1,0) value exceeds the complement bound")
    if arrangement is not None and curve is not None:
        for key, value in arrangement.items():
            if key[2] > 0:
                cap = curve.bound_at(key)
                if value > cap:
                    problems.append(f"arrangement {key} > curve bound {cap}")
    return Check(
        "bound_consistency",
        not problems,
        "identity",
        "; ".join(problems) if problems else "bounds nest as required",
    )


def build_report(spec: HypersurfaceSpec) -> InvariantReport:
    """Compute every invariant and run every applicable cross-check.

    Raises InvalidSpec when validation reports errors; warnings (the
    realizability heuristic) are attached to the report instead.
    """
    violations = validate(spec)
    errors = hard_violations(violations)
    if errors:
        raise InvalidSpec(errors)
    warnings = [v for v in violations if v.severity == "warning"]

    derived = spec.derived
    inv = boundary.compute_boundary_invariants(spec)
    checks: list[Check] = []

    n, d = spec.n, spec.d
    expected_degree = 2 * (d - 1) ** (n + 1)
    checks.append(
        Check(
            "degree_identity",
            inv.delta_m.degree == expected_degree,
            "identity",
            f"deg delta_M = {inv.delta_m.degree}, expected {expected_degree}",
        )
    )
    checks.append(
        Check(
            "xi_integral",
            d * derived.xi == (d - 1) ** (n + 1) + (-1) ** n,
            "identity",
            f"xi = {derived.xi}",
        )
    )

    bad_locals = [
        str(s)
        for (s, _), poly in zip(spec.singularities, derived.local_alexander)
        if poly.degree != milnor_number(s)
    ]
    checks.append(
        Check(
            "local_alexander_degree",
            not bad_locals,
            "identity",
            "deg = Milnor number at each germ"
            if not bad_locals
            else f"mismatch: {bad_locals}",
        )
    )
    if n == 1:
        bad_mass = [
            str(s)
            for (s, _), table in zip(spec.singularities, derived.local_pairs)
            if table.unipotent().total_dim() != branches(s) - 1
        ]
        checks.append(
            Check(
                "local_unipotent_mass",
                not bad_mass,
                "identity",
                "eigenvalue-1 mass = branches - 1 at each germ"
                if not bad_mass
                else f"mismatch: {bad_mass}",
            )
        )

    tables: dict[str, SpectralPairTable] = {"nonunipotent": inv.pairs_nonunipotent}
    if inv.pairs_full is not None:
        tables["full"] = inv.pairs_full
    if inv.weight_resolved is not None:
        for w, t in inv.weight_resolved.items():
            tables[f"weight {w}"] = t
    pairs_arrangement = bound_arrangement = None
    if spec.line_arrangement:
        mults = derived.ordinary_multiplicities
        pairs_arrangement = boundary.boundary_pairs_arrangement(d, mults)
        bound_arrangement = bounds.spectral_bound_arrangement(d, mults)
        tables["arrangement"] = pairs_arrangement
    checks.append(_check_tables_conjugation(tables))
    checks.append(
        _check_level_duality(n, inv.pairs_nonunipotent, inv.pairs_full, inv.weight_resolved)
    )

    if n == 1:
        checks.append(
            Check(
                "two_path_agreement",
                inv.pairs_full.nonunipotent() == inv.pairs_nonunipotent,
                "identity",
                "curve route and local+infinity route agree above eigenvalue 1",
            )
        )
    if inv.pairs_full is not None:
        checks.append(
            Check(
                "total_mass",
                inv.pairs_full.total_dim() == inv.delta_m.degree,
                "identity",
                f"table mass {inv.pairs_full.total_dim()} vs "
                f"deg delta_M {inv.delta_m.degree}",
            )
        )
    if pairs_arrangement is not None:
        checks.append(
            Check(
                "arrangement_agreement",
                pairs_arrangement == inv.pairs_full,
                "identity",
                "weak-data route equals the curve route",
            )
        )
    if spec.rational_homology_manifold and n == 1:
        assert inv.weight_resolved is not None and inv.pairs_full is not None
        flattened = boundary.flatten_weights(inv.weight_resolved)
        checks.append(
            Check(
                "qhm_agreement",
                flattened + inv.pairs_nonunipotent == inv.pairs_full,
                "identity",
                "weight-resolved route equals the curve route",
            )
        )

    div_infinity = bounds.divisibility_bound_infinity(n, d)
    div_local = bounds.divisibility_bound_local(spec)
    bound_complement = bounds.spectral_bound_complement(spec)
    bound_curve = bounds.spectral_bound_curve(spec) if n == 1 else None
    checks.append(
        _check_bound_consistency(spec, bound_complement, bound_curve, bound_arrangement)
    )

    err = None
    if spec.delta_u is not None:
        delta_u = spec.delta_u
        checks.append(
            Check(
                "delta_u_divides_infinity",
                delta_u.divides(div_infinity),
                "input",
                "delta_U divides the bound at infinity",
            )
        )
        checks.append(
            Check(
                "delta_u_divides_local",
                delta_u.divides(div_local),
                "input",
                "delta_U divides the local bound",
            )
        )
        try:
            err = boundary.error_term(spec, delta_u)
            checks.append(
                Check(
                    "error_term_even_degree",
                    err.degree % 2 == 0,
                    "identity",
                    f"e(t) = {err}, degree {err.degree}",
                )
            )
        except NotDivisible as exc:
            checks.append(Check("delta_u_consistent", False, "input", str(exc)))

    return InvariantReport(
        spec=spec,
        derived=derived,
        delta_m=inv.delta_m,
        divisibility_infinity=div_infinity,
        divisibility_local=div_local,
        bound_complement=bound_complement,
        pairs_nonunipotent=inv.pairs_nonunipotent,
        checks=checks,
        warnings=warnings,
        bound_curve=bound_curve,
        bound_arrangement=bound_arrangement,
        error_term=err,
        pairs_unipotent=inv.pairs_unipotent,
        pairs_full=inv.pairs_full,
        weight_resolved=inv.weight_resolved,
        pairs_arrangement=pairs_arrangement,
        projective_hodge=boundary.projective_curve_hodge(spec) if n == 1 else None,
    )


# ---------------------------------------------------------------------------
# Serialization


def report_to_dict(report: InvariantReport) -> dict:
    """JSON-ready, deterministic dictionary form of the report."""
    spec = report.spec
    out: dict = {
        "spec": serialize_spec(spec),
        "derived": {
            "mu": report.derived.mu,
            "xi": report.derived.xi,
            "b1": report.derived.b1,
            "j1": report.derived.j1,
        },
        "delta_M": report.delta_m.to_dict(),
        "divisibility": {
            "infinity": report.divisibility_infinity.to_dict(),
            "local": report.divisibility_local.to_dict(),
        },
        "bounds": {"complement": report.bound_complement.to_rows()},
        "tables": {
            "nonunipotent": report.pairs_nonunipotent.to_rows(),
            "weights_resolved": report.weight_resolved is not None,
        },
        "checks": [
            {"name": c.name, "passed": c.passed, "kind": c.kind, "detail": c.detail}
            for c in report.checks
        ],
        "warnings": [
            {"code": v.code, "message": v.message} for v in report.warnings
        ],
    }
    if report.bound_curve is not None:
        out["bounds"]["curve"] = report.bound_curve.to_rows()
    if report.bound_arrangement is not None:
        out["bounds"]["arrangement"] = report.bound_arrangement.to_rows()
    if report.error_term is not None:
        out["error_term"] = report.error_term.to_dict()
    if report.pairs_unipotent is not None:
        out["tables"]["unipotent"] = report.pairs_unipotent.to_rows()
    if report.pairs_full is not None:
        out["tables"]["full"] = report.pairs_full.to_rows()
    if report.weight_resolved is not None:
        out["tables"]["by_weight"] = {
            str(w): t.to_rows() for w, t in sorted(report.weight_resolved.items())
        }
    if report.pairs_arrangement is not None:
        out["tables"]["arrangement"] = report.pairs_arrangement.to_rows()
    if report.projective_hodge is not None:
        out["projective_curve"] = {
            "projective": [
                [deg, p, q, v]
                for (deg, p, q), v in sorted(report.projective_hodge.projective)
            ],
            "compact_support": [
                [deg, p, q, v]
                for (deg, p, q), v in sorted(report.projective_hodge.compact_support)
            ],
        }
    return out


def report_to_json(report: InvariantReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2)


def _table_lines(rows, header=("p", "q", "alpha", "count")) -> list[str]:
    rows = [[str(x) for x in row] for row in rows]
    if not rows:
        return ["  (empty)"]
    widths = [
        max(len(header[i]) if i < len(header) else 0, *(len(r[i]) for r in rows))
        for i in range(len(rows[0]))
    ]
    head = "  " + "  ".join(
        (header[i] if i < len(header) else "").ljust(widths[i])
        for i in range(len(rows[0]))
    )
    lines = [head]
    for row in rows:
        lines.append("  " + "  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return lines


def render_text(report: InvariantReport) -> str:
    """Aligned plain-text rendering of the report."""
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
    lines.append("")
    lines.append("spectral pairs, eigenvalue != 1 (exact):")
    lines.extend(_table_lines(report.pairs_nonunipotent.to_rows()))
    if report.pairs_full is not None:
        lines.append("")
        lines.append("spectral pairs, full table (exact):")
        lines.extend(_table_lines(report.pairs_full.to_rows()))
    if report.weight_resolved is not None:
        for w, table in sorted(report.weight_resolved.items()):
            lines.append("")
            lines.append(f"eigenvalue-1 pairs of weight {w}:")
            lines.extend(_table_lines(table.to_rows()))
    lines.append("")
    lines.append("complement bounds (upper unless marked exact):")
    lines.extend(
        _table_lines(
            report.bound_complement.to_rows(), ("p", "q", "alpha", "bound", "")
        )
    )
    if report.bound_curve is not None:
        lines.append("")
        lines.append("complement bounds, curve form:")
        lines.extend(
            _table_lines(report.bound_curve.to_rows(), ("p", "q", "alpha", "bound", ""))
        )
    if report.bound_arrangement is not None:
        lines.append("")
        lines.append("complement bounds, arrangement form:")
        lines.extend(
            _table_lines(
                report.bound_arrangement.to_rows(), ("p", "q", "alpha", "bound", "")
            )
        )
    for violation in report.warnings:
        lines.append("")
        lines.append(f"warning: {violation.message}")
    lines.append("")
    lines.append("checks:")
    for check in report.checks:
        lines.append("  " + check.line())
    return "\n".join(lines) + "\n"
