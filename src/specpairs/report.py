"""Assembly of the full invariant report with every cross-check.

A report computes all invariants the input supports and then verifies the
identities tying them together: the degree of the boundary Alexander
polynomial, symmetry of every emitted table, agreement of independent
computation routes, and consistency between bounds.  Each check compares a
found value with an expected one, and a failed check's detail names what
differs between them.  An identity-class check failing means a bug (or a
genuinely inconsistent identity), while an input-class check failing means
user-supplied data (such as delta_U) is inconsistent with the rest of the
input.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from typing import NamedTuple

from . import boundary, bounds
from .laurent import CyclotomicFactorization, NotDivisible
from .model import HypersurfaceSpec, serialize_spec
from .pairs import SpectralPairTable, _angle_texts


class Check(NamedTuple):
    name: str
    passed: bool
    kind: str  # "identity": internal cross-check; "input": user data consistency
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}{detail}"


class InvariantReport(NamedTuple):
    spec: HypersurfaceSpec
    delta_m: CyclotomicFactorization
    bound_complement: bounds.BoundTable
    pairs_nonunipotent: SpectralPairTable
    checks: list[Check]
    bound_arrangement: bounds.BoundTable | None = None
    error_term: CyclotomicFactorization | None = None
    pairs_full: SpectralPairTable | None = None
    weight_resolved: dict[int, SpectralPairTable] | None = None
    pairs_arrangement: SpectralPairTable | None = None

    # read off the spec: its realizability warnings, and the curve bound,
    # which bounds keeps for the last degree and component count asked
    derived = property(lambda self: self.spec.derived)
    warnings = property(lambda self: [
        v for v in self.spec.violations if v.severity == "warning"])
    bound_curve = property(lambda self: bounds.spectral_bound_curve(self.spec)
                           if self.spec.n == 1 else None)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self, kind: str | None = None) -> list[Check]:
        return [
            c
            for c in self.checks
            if not c.passed and (kind is None or c.kind == kind)
        ]


def _agree(name: str, found, expected, passing: str, kind: str = "identity",
           keys=None) -> Check:
    """The check that found == expected: `passing` is its detail when they
    agree, and what differs between them when they do not.  With keys,
    found and expected are lists in key order, named by key where they
    differ."""
    if found == expected:
        return Check(name, True, kind, passing)
    if keys is not None:
        found, expected = dict(zip(keys, found)), dict(zip(keys, expected))
    return Check(name, False, kind, _difference(found, expected))


def _difference(found, expected) -> str:
    """What differs between two unequal values of one type: per differing
    dict key, the rows only one table has, the orders where factorizations
    differ (not the multiplicities, which may have too many digits to
    print), the items only one list has, or both values."""
    if isinstance(found, dict):
        return "; ".join(
            f"{key}: {_difference(found.get(key), expected.get(key))}"
            for key in {**found, **expected} if found.get(key) != expected.get(key)
        )
    if isinstance(found, list):
        return "; ".join(
            str(x) for x in found + expected if (x in found) != (x in expected)
        )
    if isinstance(found, SpectralPairTable):
        a, b = set(found._cells()), set(expected._cells())
        rows = [", ".join(f"h({p},{q},{alpha})={c}" for p, q, alpha, c in sorted(only))
                or "none" for only in (a - b, b - a)]
        return f"only found {rows[0]} vs only expected {rows[1]}"
    if isinstance(found, CyclotomicFactorization):
        orders: dict[str, list[str]] = {"high": [], "low": []}
        for k in sorted(found.factors.keys() | expected.factors.keys()):
            m, e = found.multiplicity(k), expected.multiplicity(k)
            if m != e:
                orders["high" if m > e else "low"].append(f"Phi({k})")
        return "; ".join(f"multiplicity too {word} at {', '.join(ks)}"
                         for word, ks in orders.items() if ks)
    return f"found {found}, expected {expected}"


def build_report(spec: HypersurfaceSpec) -> InvariantReport:
    """Compute every invariant and run every applicable cross-check.

    spec.derived raises InvalidSpec when validation reports errors; warnings
    (the realizability heuristic) are read off the report instead.
    """
    derived = spec.derived
    n, d = spec.n, spec.d
    delta_m = boundary.boundary_alexander(spec)
    deg_m = delta_m.degree
    nonunip = boundary.boundary_pairs_nonunipotent(spec)
    # the full table is exact for curves and rational homology manifolds only
    weighted = flat = None
    if spec.rational_homology_manifold:
        weighted = boundary.boundary_pairs_qhm(spec)
        flat = boundary.flatten_weights(weighted) + nonunip
    full = boundary.boundary_pairs_curve(spec) if n == 1 else flat
    pairs_arrangement = bound_arrangement = None
    lines = spec.line_arrangement
    if lines:  # every point is ordinary: its branches are its multiplicity
        points = [(s.branches, c) for s, c in spec.singularities]
        pairs_arrangement = boundary.boundary_pairs_arrangement(d, points)
        bound_arrangement = bounds.spectral_bound_arrangement(d, points)
    bound_complement = bounds.spectral_bound_complement(spec)
    bound_curve = bounds.spectral_bound_curve(spec) if n == 1 else None
    err, refused = None, []
    if spec.delta_u is not None:
        try:
            err = boundary.error_term(delta_m, spec.delta_u)
        except NotDivisible as exc:
            refused = [str(exc)]

    by_weight = {f"weight {w}": t for w, t in (weighted or {}).items()}
    named = {"nonunipotent": nonunip, "full": full, **by_weight}
    named = {name: t for name, t in named.items() if t is not None}
    # each table is dual to itself at level n, but weight w to weight 2n - w
    partners = {**named, **{f"weight {w}": weighted[2 * n - w] for w in weighted or ()}}
    tables = dict(named, arrangement=pairs_arrangement) if lines else named
    germs = [s for s, _ in spec.singularities]
    nesting: list[str] = []
    if bound_curve is not None:
        nesting += [f"complement ({p}, {q}, {a}) > curve bound {cap}"
                    for p, q, a, cap in bound_complement.exceeding(bound_curve)]
        if spec.components - 1 > bound_complement.bound_at((1, 1, 0)):
            nesting.append("exact (1,1,0) value exceeds the complement bound")
        if bound_arrangement is not None:
            nesting += [f"arrangement ({p}, {q}, {a}) > curve bound {cap}"
                        for p, q, a, cap in bound_arrangement.exceeding(bound_curve)]

    degree = 2 * (d - 1) ** (n + 1)
    checks = [
        _agree("degree_identity", {"deg delta_M": deg_m}, {"deg delta_M": degree},
               f"deg delta_M = {deg_m}, expected {degree}"),
        _agree("xi_integral", {"d * xi": d * derived.xi},
               {"d * xi": (d - 1) ** (n + 1) + (-1) ** n}, f"xi = {derived.xi}"),
        _agree("local_alexander_degree", [s.alexander.degree for s in germs],
               [s.milnor for s in germs], "deg = Milnor number at each germ",
               keys=germs),
    ]
    if n == 1:
        checks.append(_agree(
            "local_unipotent_mass", [s.pairs.unipotent_dim() for s in germs],
            [s.branches - 1 for s in germs],
            "eigenvalue-1 mass = branches - 1 at each germ", keys=germs,
        ))
    # one pass per table reads both symmetries; the mirrored tables are
    # built only when a check fails, to name what differs
    symmetric = {name: t.symmetries(n) for name, t in tables.items()}
    conjugates, duals = tables, partners
    if not all(c for c, _ in symmetric.values()):
        conjugates = {name: t.conjugate() for name, t in tables.items()}
    if not all(symmetric[name][1] if partners[name] is t
               else t.level_dual(n) == partners[name] for name, t in named.items()):
        duals = {name: t.level_dual(n) for name, t in named.items()}
    checks += [
        _agree("conjugation_symmetry", tables, conjugates, "all emitted tables"),
        _agree("level_duality", duals, partners, f"self-dual at level {n}"),
    ]
    if n == 1:
        checks.append(_agree(
            "two_path_agreement", full.nonunipotent(), nonunip,
            "curve route and local+infinity route agree above eigenvalue 1",
        ))
    if full is not None:
        mass = full.total_dim()
        checks.append(_agree(
            "total_mass", {"table mass": mass}, {"table mass": deg_m},
            f"table mass {mass} vs deg delta_M {deg_m}",
        ))
    if pairs_arrangement is not None:
        checks.append(_agree("arrangement_agreement", pairs_arrangement, full,
                             "weak-data route equals the curve route"))
    if flat is not None and n == 1:
        checks.append(_agree("qhm_agreement", flat, full,
                             "weight-resolved route equals the curve route"))
    checks.append(_agree("bound_consistency", nesting, [], "bounds nest as required"))
    if spec.delta_u is not None:
        u = spec.delta_u
        checks += [
            _agree("delta_u_divides_infinity",
                   u, u.gcd(bounds.divisibility_bound_infinity(n, d)),
                   "delta_U divides the bound at infinity", "input"),
            _agree("delta_u_divides_local", u, u.gcd(derived.local_bound),
                   "delta_U divides the local bound", "input"),
            # emitted only when it fails: e(t) takes its place
            _agree("delta_u_consistent", refused, [], "", "input") if err is None
            else _agree("error_term_even_degree", {"deg e(t) mod 2": err.degree % 2},
                        {"deg e(t) mod 2": 0}, f"e(t) = {err}, degree {err.degree}"),
        ]

    return InvariantReport(
        spec=spec,
        delta_m=delta_m,
        bound_complement=bound_complement,
        pairs_nonunipotent=nonunip,
        checks=checks,
        bound_arrangement=bound_arrangement,
        error_term=err,
        pairs_full=full,
        weight_resolved=weighted,
        pairs_arrangement=pairs_arrangement,
    )


# ---------------------------------------------------------------------------
# Serialization


def _sections(
    report: InvariantReport,
) -> list[tuple[tuple[str, ...], str | None, SpectralPairTable | bounds.BoundTable]]:
    """The tables of a report in output order, as (location in the JSON
    document, text heading or None for a table only the JSON carries, table);
    tables the input does not support are left out."""
    by_weight = sorted((report.weight_resolved or {}).items())
    sections = [
        (("tables", "nonunipotent"), "spectral pairs, eigenvalue != 1 (exact):",
         report.pairs_nonunipotent),
        (("tables", "full"), "spectral pairs, full table (exact):", report.pairs_full),
        *((("tables", "by_weight", str(w)), f"eigenvalue-1 pairs of weight {w}:", t)
          for w, t in by_weight),
        (("tables", "arrangement"), None, report.pairs_arrangement),
        (("bounds", "complement"), "complement bounds (upper unless marked exact):",
         report.bound_complement),
        (("bounds", "curve"), "complement bounds, curve form:", report.bound_curve),
        (("bounds", "arrangement"), "complement bounds, arrangement form:",
         report.bound_arrangement),
    ]
    return [section for section in sections if section[2] is not None]


def _document(report: InvariantReport, leaf) -> dict:
    """The one layout of the JSON document, with leaf(x) at the place of
    each table and each factorization x but the formal bound at infinity."""
    out: dict = {
        "spec": serialize_spec(report.spec),
        "derived": {
            "mu": report.derived.mu,
            "xi": report.derived.xi,
            "b1": report.derived.b1,
            "j1": report.derived.j1,
        },
        "delta_M": leaf(report.delta_m),
        "divisibility": {
            # labelled formal: the bound is written as a quotient, not as
            # the order of a module (and a reader refuses it as a polynomial)
            "infinity": {**bounds.divisibility_bound_infinity(
                report.spec.n, report.spec.d).to_dict(), "formal": True},
            "local": leaf(report.derived.local_bound),
        },
        "tables": {"weights_resolved": bool(report.weight_resolved)},
        "checks": [
            {"name": c.name, "passed": c.passed, "kind": c.kind, "detail": c.detail}
            for c in report.checks
        ],
        "warnings": [
            {"code": v.code, "message": v.message} for v in report.warnings
        ],
    }
    if report.pairs_full is not None:
        out["tables"]["unipotent"] = leaf(report.pairs_full.unipotent())
    for (*parents, key), _, table in _sections(report):
        node = out
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = leaf(table)
    if report.error_term is not None:
        out["error_term"] = leaf(report.error_term)
    if report.spec.n == 1:  # made here, for the only output that prints them
        out["projective_curve"] = {
            kind: [[*key, v] for key, v in sorted(numbers.items())]
            for kind, numbers in boundary.projective_curve_hodge(report.spec).items()
        }
    return out


def report_to_dict(report: InvariantReport) -> dict:
    """JSON-ready, deterministic dictionary form of the report."""
    return _document(report, lambda x: x.to_dict()
                     if isinstance(x, CyclotomicFactorization) else x.to_rows())


def report_to_json(report: InvariantReport) -> str:
    """report_to_dict as JSON text: sorted keys, an indent of 2."""
    return _json(_document(report, lambda x: x))


_string = json.encoder.encode_basestring_ascii  # C, where the interpreter has it
# the writer of each scalar type; subclasses fall to the isinstance tests
_SCALARS = {str: _string, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): {None: "null"}.get}


def _json(value, pad: str = "") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2) for a value
    built of dicts with string keys, lists, strings, integers, booleans,
    None, tables and factorizations, standing for their to_rows() and
    to_dict(); pad is the indent of the line the value starts on.

    The generic encoder is pure Python once an indent is set, so this one
    writes a scalar in a dict or a list inline, a list of ints alone with
    one join, and a table or factorization straight from its groups, one
    f-string per row."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    get, nested = _SCALARS.get, partial(_json, pad=inner)
    if isinstance(value, list):
        if value and all(type(v) is int for v in value):  # never a bool
            ints = f",\n{inner}".join(map(int.__repr__, value))
            return f"[\n{inner}{ints}\n{pad}]"
        items = [inner + (get(type(v)) or nested)(v) for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{inner}{_string(k)}: {(get(type(v)) or nested)(v)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    row, cell = "\n" + inner, "\n" + inner + "  "
    if isinstance(value, SpectralPairTable):
        texts, groups, rows = _angle_texts(value._den), value._groups, []
        for p, q in sorted(groups):
            group, head = groups[p, q], f'{row}[{cell}{p},{cell}{q},{cell}"'
            rows += [f'{head}{texts[k]}",{cell}{group[k]}{row}]' for k in sorted(group)]
    elif isinstance(value, bounds.BoundTable):
        texts, groups, rows = _angle_texts(value._den), value._groups, []
        exact = value._exact
        for p, q in sorted(groups):
            group, head = groups[p, q], f'{row}[{cell}{p},{cell}{q},{cell}"'
            rows += [f'{head}{texts[k]}",{cell}{group[k]},{cell}'
                     f'"{"exact" if (p, q, k) in exact else "upper"}"{row}]'
                     for k in sorted(group)]
    elif isinstance(value, CyclotomicFactorization):
        rows = [f"{cell}[{cell}  {k},{cell}  {m}{cell}]"  # one level below a table's
                for k, m in sorted(value._factors.items())]
        factors = "[" + ",".join(rows) + f"{row}]" if rows else "[]"
        return (f'{{{row}"factors": {factors},{row}"t_power": 0,'
                f'{row}"unit": "1/1"\n{pad}}}')
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return "[" + ",".join(rows) + f"\n{pad}]" if rows else "[]"


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
    for (group, *_), heading, table in _sections(report):
        if heading is None:
            continue
        lines += ["", heading]
        rows = table._rows()
        if not rows:
            lines.append("  (empty)")
            continue
        # p and q once per Hodge type, each other column joined over the types
        columns = [[p for p, *_ in rows], [q for _, q, *_ in rows]]
        columns += [list(chain.from_iterable(c)) for c in zip(*(r[2:] for r in rows))]
        # bound rows carry a fifth, unheaded column marking exact values
        header = ("p", "q", "alpha", "count" if group == "tables" else "bound",
                  "")[:len(columns)]
        # an int's text is longest at the least or the greatest value
        widths = [
            max(len(title), *map(len, set(column))) if isinstance(column[0], str)
            else max(len(title), len(str(min(column))), len(str(max(column))))
            for title, column in zip(header, columns)
        ]
        head = f"  %-{widths[0]}s  %-{widths[1]}s  "
        line = "  ".join(f"%-{w}s" for w in widths[2:])
        lines.append(head % header[:2] + line % header[2:])
        for p, q, *group_columns in rows:
            row = head % (p, q) + line  # p and q are ints, with no "%" to escape
            lines += [row % cell for cell in zip(*group_columns)]
    for violation in report.warnings:
        lines += ["", f"warning: {violation.message}"]
    lines += ["", "checks:", *("  " + check.line() for check in report.checks)]
    return "\n".join(lines) + "\n"
