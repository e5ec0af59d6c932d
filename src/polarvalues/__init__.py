"""Detection of asymptotic non-regular values of polynomial maps C^n -> C.

The package computes, for a polynomial f with rational coefficients, a
finite set of candidate values containing every value at which f fails
the Malgrange regularity condition at infinity.  Two constructions are
provided: a single random curve cut out by combined gradient relations
(`run_super_polar`), and an iterated sequence of polar curves on generic
linear slices (`run_iterated_polar`).  Both reduce to the computation of
the set of values over which a curve-to-line projection fails to be
proper, carried out with an exact Groebner-basis engine over Q.
"""

from .bounds import (
    SingularComponentData,
    bound_kinf,
    bound_nk,
    bound_superpolar,
)
from .cli import ParseError, RunConfig, parse_polynomial
from .detector import (
    DetectionReport,
    DimensionGuardError,
    InternalInvariantError,
    IteratedPolarCoefficients,
    RunRecord,
    StepRecord,
    SuperPolarCoefficients,
    critical_values,
    derive_run_seed,
    gradient_ideal,
    intersect_runs,
    is_singular_locus_finite,
    run_iterated_polar,
    run_super_polar,
    sample_invertible_matrix,
    sample_super_polar_coefficients,
    super_polar_ideal,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    affine_dimension,
    buchberger,
    eliminate,
    graded_basis,
    with_rabinowitsch,
)
from .nonproper import (
    EMPTY_CURVE,
    VERTICAL_COMPONENT,
    GraphIdeal,
    NotACurveError,
    ValueSet,
    fiber_relation,
    graph_ideal,
    leading_coeff_in,
    nonproperness_values,
)
from .polynomials import (
    Polynomial,
    PolynomialRing,
    extend_ring,
    lift_polynomial,
)
from .univar import (
    UnivariatePolynomial,
    approx_roots_with_status,
    gcd_univar,
    rational_roots,
    squarefree_part,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_CURVE",
    "VERTICAL_COMPONENT",
    "DetectionReport",
    "DimensionGuardError",
    "GraphIdeal",
    "GroebnerBasis",
    "Ideal",
    "InternalInvariantError",
    "IteratedPolarCoefficients",
    "NotACurveError",
    "ParseError",
    "Polynomial",
    "PolynomialRing",
    "RunConfig",
    "RunRecord",
    "SingularComponentData",
    "StepRecord",
    "SuperPolarCoefficients",
    "UnivariatePolynomial",
    "ValueSet",
    "affine_dimension",
    "approx_roots_with_status",
    "bound_kinf",
    "bound_nk",
    "bound_superpolar",
    "buchberger",
    "critical_values",
    "derive_run_seed",
    "eliminate",
    "extend_ring",
    "fiber_relation",
    "gcd_univar",
    "graded_basis",
    "gradient_ideal",
    "graph_ideal",
    "intersect_runs",
    "is_singular_locus_finite",
    "leading_coeff_in",
    "lift_polynomial",
    "nonproperness_values",
    "parse_polynomial",
    "rational_roots",
    "run_iterated_polar",
    "run_super_polar",
    "sample_invertible_matrix",
    "sample_super_polar_coefficients",
    "squarefree_part",
    "super_polar_ideal",
    "with_rabinowitsch",
]
