"""Exact calculator for Alexander polynomials and equivariant mixed Hodge
numbers (spectral pairs) of complements and boundary manifolds of affine
hypersurfaces transversal at infinity with isolated singularities."""

from .boundary import (
    boundary_alexander,
    boundary_pairs_arrangement,
    boundary_pairs_curve,
    boundary_pairs_nonunipotent,
    boundary_pairs_qhm,
    error_term,
    flatten_weights,
    projective_curve_hodge,
)
from .bounds import (
    BoundTable,
    divisibility_bound_infinity,
    mhat,
    spectral_bound_arrangement,
    spectral_bound_complement,
    spectral_bound_curve,
)
from .laurent import (
    CyclotomicFactorization,
    NotDivisible,
    euler_phi,
)
from .localsing import (
    Brieskorn,
    Explicit,
    LocalSingularity,
    Ordinary,
    spectrum,
)
from .milnor import (
    EnumerationTooLarge,
    milnor_dim,
    milnor_dim_bruteforce,
    steenbrink_infinity,
)
from .model import (
    Derived,
    HypersurfaceSpec,
    InvalidSpec,
    MalformedDocument,
    Violation,
    derived_quantities,
    parse_spec,
    serialize_spec,
    validate,
)
from .pairs import SpectralPairTable
from .report import (
    Check,
    InvariantReport,
    build_report,
    render_text,
    report_to_dict,
    report_to_json,
)

__version__ = "0.1.0"
