"""Detection of candidate asymptotic non-regular values of a polynomial map.

Both methods trap the candidate values as non-properness values of the map
restricted to auxiliary curves, and differ only in how they sample those
curves:

* the combined-curve method intersects n-1 random hypersurfaces of the form
  sum_j a_ij df/dx_j + sum_{j,k} b_ijk x_k df/dx_j, away from the singular
  locus of f (removed by localization when it is not finite);
* the sliced method walks generic hyperplane slices of f and uses the
  classical polar curve of each slice with respect to its first coordinate.

One driver, `_detect`, runs both: it validates the input, derives the run
seeds, resamples attempts whose curves fail the dimension guard, computes
the non-properness values of each accepted curve, intersects the runs and
assembles the report.  Each method contributes only its sampler, which
draws one attempt's coefficients and builds its curves.

Each run reports a finite value set; runs with independent coefficients are
intersected (gcd of the defining polynomials), shrinking coefficient-
dependent artifacts while keeping the true values.  Everything is driven by
a documented 64-bit seed derivation, so reports are reproducible bit for
bit across platforms.
"""
from __future__ import annotations

import dataclasses
import random
import time
import warnings
from dataclasses import dataclass, field

from .bounds import SingularComponentData, bound_kinf, bound_nk, bound_superpolar
from .fields import QQ
from .groebner import (
    Ideal,
    UncertifiedResult,
    affine_dimension,
    with_rabinowitsch,
)
from .nonproper import (
    EMPTY_CURVE,
    VERTICAL_COMPONENT,
    ValueSet,
    graph_ideal,
    nonproperness_values,
    value_line,
)
from .polynomials import Polynomial, _invertible, lift_polynomial
from .univar import UnivariatePolynomial, gcd_univar, squarefree_part

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
DEFAULT_COEFF_BOUND = 9999
DEFAULT_RUNS = 3
RETRY_BUDGET = 5
MATRIX_ENTRY_BOUND = 9


class DimensionGuardError(RuntimeError):
    """Random curve construction kept producing higher-dimensional sets."""

    def __init__(self, message, dimensions):
        super().__init__(message)
        self.dimensions = tuple(dimensions)


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; a bijection on 64-bit words."""
    x = (x + GOLDEN_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_run_seed(seed: int, run_index: int) -> int:
    """Pairwise-distinct per-run seeds from a base seed."""
    return splitmix64((seed + GOLDEN_GAMMA * run_index) & MASK64)


def _nonzero_int(rng: random.Random, bound: int) -> int:
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v


@dataclass(frozen=True)
class SuperPolarCoefficients:
    """Random data of one combined-curve run: g_i = sum_j a[i][j] df/dx_j
    + sum_{j,k} b[i][j][k] x_k df/dx_j, plus the localization vector beta.

    Sampling order is fixed: all of a row by row, then b, then beta, with
    every entry a nonzero integer in [-bound, bound].
    """

    seed: int
    a: tuple
    b: tuple
    beta: tuple


@dataclass(frozen=True)
class IteratedPolarCoefficients:
    """Random data of one sliced run: the coordinate change matrix and the
    per-slice localization vectors."""

    seed: int
    matrix: tuple
    betas: tuple


def sample_super_polar_coefficients(
    rng: random.Random, n: int, bound: int, seed: int
) -> SuperPolarCoefficients:
    a = tuple(
        tuple(_nonzero_int(rng, bound) for _ in range(n)) for _ in range(n - 1)
    )
    b = tuple(
        tuple(
            tuple(_nonzero_int(rng, bound) for _ in range(n)) for _ in range(n)
        )
        for _ in range(n - 1)
    )
    beta = tuple(_nonzero_int(rng, bound) for _ in range(n))
    return SuperPolarCoefficients(seed=seed, a=a, b=b, beta=beta)


def sample_invertible_matrix(rng: random.Random, n: int, bound: int = MATRIX_ENTRY_BOUND):
    """Uniform integer matrix entries, resampled until invertible."""
    for _ in range(1000):
        rows = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
        )
        if _invertible([[QQ(x) for x in row] for row in rows]):
            return rows
    raise InternalInvariantError("could not sample an invertible matrix")


def super_polar_ideal(f: Polynomial, coeffs: SuperPolarCoefficients) -> Ideal:
    """The ideal of the n-1 combined derivative hypersurfaces for f."""
    ring = f.ring
    n = ring.nvars
    if n < 2:
        raise ValueError("need at least two variables")
    if len(coeffs.a) != n - 1 or len(coeffs.b) != n - 1:
        raise ValueError("coefficient shapes do not match the ring")
    partials = [f.partial_derivative(j) for j in range(n)]
    gens = []
    xs = ring.gens()
    for i in range(n - 1):
        g = ring.zero()
        for j in range(n):
            if coeffs.a[i][j]:
                g = g + coeffs.a[i][j] * partials[j]
        for j in range(n):
            for k in range(n):
                bij = coeffs.b[i][j][k]
                if bij:
                    g = g + bij * xs[k] * partials[j]
        gens.append(g)
    return Ideal(ring, gens)


def gradient_ideal(f: Polynomial) -> Ideal:
    return Ideal(
        f.ring, [f.partial_derivative(j) for j in range(f.ring.nvars)]
    )


def is_singular_locus_finite(f: Polynomial) -> bool:
    """True when the critical set of f is finite (possibly empty)."""
    return affine_dimension(gradient_ideal(f)) <= 0


def critical_values(f: Polynomial, tolerance: float = 1e-10) -> ValueSet:
    """The set f(Sing f), computed by eliminating down to the value line."""
    rho = value_line(graph_ideal(gradient_ideal(f), f))
    if rho is None:
        raise InternalInvariantError(
            "critical value projection came out dominant"
        )
    if rho.degree() < 1:
        return ValueSet.empty()
    return ValueSet.from_rho(rho, (), tolerance)


def intersect_runs(rhos) -> UnivariatePolynomial:
    """Gcd of per-run defining polynomials: the intersection of value sets."""
    rhos = list(rhos)
    if not rhos:
        raise ValueError("need at least one run to intersect")
    acc = rhos[0]
    for r in rhos[1:]:
        acc = gcd_univar(acc, r)
    return squarefree_part(acc)


@dataclass(frozen=True)
class StepRecord:
    """One hyperplane-slice step of a sliced run (1-based index)."""

    index: int
    values: ValueSet


@dataclass(frozen=True)
class RunRecord:
    seed: int
    coefficients: object
    values: ValueSet
    dim_w: int
    attempts: int
    steps: tuple = ()
    millis: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class BoundsSummary:
    """Degree bounds attached to a report; None marks 'not applicable'."""

    nk: object
    superpolar: object
    kinf: object


@dataclass(frozen=True)
class DetectionReport:
    input_text: str
    variables: tuple
    degree: int
    method: str
    case: str
    seed: int
    runs_requested: int
    coeff_bound: int
    tolerance: float
    runs: tuple
    s_final: ValueSet
    critical: ValueSet
    bounds: BoundsSummary
    warnings: tuple
    total_millis: float = field(default=0.0, compare=False)


def _bounds_for(degree: int, n: int) -> BoundsSummary:
    sing = SingularComponentData.empty()
    nk = bound_nk(degree, n, sing) if degree >= 2 else None
    sp = bound_superpolar(degree, n, sing) if degree >= 2 else None
    ki = bound_kinf(degree, n, sing) if degree >= 3 else None
    return BoundsSummary(nk=nk, superpolar=sp, kinf=ki)


def _validate_input(f: Polynomial, runs: int, coeff_bound: int):
    if f.ring.nvars < 2:
        raise ValueError("need a map on at least two variables")
    if f.is_constant():
        raise ValueError("f must be non-constant")
    if runs < 1:
        raise ValueError("need at least one run")
    if coeff_bound < 2:
        raise ValueError("coefficient bound must be at least 2")


def _final_warnings(
    report_runs, s_final: ValueSet, critical: ValueSet, bounds: BoundsSummary
):
    warnings = []
    for k, rec in enumerate(report_runs):
        if rec.attempts > 1:
            warnings.append(
                "run %d: dimension guard resampled %d time(s)"
                % (k, rec.attempts - 1)
            )
        if not rec.values.approx_converged:
            warnings.append(
                "run %d: numeric root refinement did not meet tolerance"
                % k
            )
    for name, values in (("final", s_final), ("critical", critical)):
        if not values.approx_converged:
            warnings.append(
                "%s values: numeric root refinement did not meet tolerance"
                % name
            )
    if any(VERTICAL_COMPONENT in rec.values.flags for rec in report_runs):
        warnings.append(
            "some runs met components where the map is constant; reported "
            "values are a superset (vertical_component)"
        )
    if bounds.superpolar is not None and s_final.root_count() > bounds.superpolar:
        warnings.append(
            "final value count exceeds the curve degree bound; vertical "
            "components have likely inflated the set"
        )
    return warnings


def _detect(f, method, seed, runs, coeff_bound, tolerance, prepare):
    """`_detect_values` with the UncertifiedResult warnings it raises moved
    into the report's warnings, each message once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UncertifiedResult)
        report = _detect_values(
            f, method, seed, runs, coeff_bound, tolerance, prepare
        )
    uncertified = []
    for w in caught:
        if issubclass(w.category, UncertifiedResult):
            uncertified.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if not uncertified:
        return report
    return dataclasses.replace(
        report,
        warnings=report.warnings + tuple(dict.fromkeys(uncertified)),
    )


def _detect_values(f, method, seed, runs, coeff_bound, tolerance, prepare):
    """The detection driver shared by both methods.

    `prepare()` runs once the input is validated and returns the report's
    case and the method's sampler.  The sampler is called as
    `sample(rng, run_seed)` once per attempt and returns either the
    failing dimension of that attempt (None when the localizing h
    vanished) or the run's coefficients and its curve pieces.  A piece is
    `(curve, f_on_curve, escape_vars, dim)`, or a ready value set for a
    slice without a curve.  Each run gets its own generator, from which
    failed attempts are resampled up to RETRY_BUDGET times; the values
    are computed only once an attempt has passed the dimension guard.
    """
    _validate_input(f, runs, coeff_bound)
    n = f.ring.nvars
    degree = int(f.total_degree())
    t_total = time.perf_counter()
    case, sample = prepare()

    records = []
    for k in range(runs):
        run_seed = derive_run_seed(seed, k)
        rng = random.Random(run_seed)
        t_run = time.perf_counter()
        attempt_dims = []
        for attempt in range(1, RETRY_BUDGET + 2):
            drawn = sample(rng, run_seed)
            if isinstance(drawn, tuple):
                break
            attempt_dims.append(drawn)
        else:
            raise DimensionGuardError(
                "run %d: the polar curves stayed higher-dimensional after %d "
                "attempts" % (k, RETRY_BUDGET + 1),
                attempt_dims,
            )
        coefficients, pieces = drawn
        curves = [p for p in pieces if not isinstance(p, ValueSet)]
        piece_values = [
            p
            if isinstance(p, ValueSet)
            else nonproperness_values(
                p[0], p[1], escape_vars=p[2], dim=p[3], tolerance=tolerance
            )
            for p in pieces
        ]
        if len(piece_values) == 1:
            values = piece_values[0]
        else:
            # a run's value set is the union over its slices
            rho = UnivariatePolynomial.one()
            for v in piece_values:
                rho = rho * v.rho
            flags = frozenset().union(*(v.flags for v in piece_values))
            values = ValueSet.from_rho(rho, flags, tolerance)
        if method == "iterated_polar":
            steps = tuple(
                StepRecord(index=i, values=v)
                for i, v in enumerate(piece_values, 1)
            )
        else:
            steps = ()
        records.append(
            RunRecord(
                seed=run_seed,
                coefficients=coefficients,
                values=values,
                dim_w=max((p[3] for p in curves), default=-1),
                attempts=attempt,
                steps=steps,
                millis=(time.perf_counter() - t_run) * 1000.0,
            )
        )

    s_rho = intersect_runs([rec.values.rho for rec in records])
    flag_union = frozenset().union(*(rec.values.flags for rec in records))
    s_final = ValueSet.from_rho(s_rho, flag_union, tolerance)
    critical = critical_values(f, tolerance)
    bounds = _bounds_for(degree, n)
    warnings = _final_warnings(records, s_final, critical, bounds)

    return DetectionReport(
        input_text=str(f),
        variables=f.ring.variables,
        degree=degree,
        method=method,
        case=case,
        seed=seed,
        runs_requested=runs,
        coeff_bound=coeff_bound,
        tolerance=tolerance,
        runs=tuple(records),
        s_final=s_final,
        critical=critical,
        bounds=bounds,
        warnings=tuple(warnings),
        total_millis=(time.perf_counter() - t_total) * 1000.0,
    )


def run_super_polar(
    f: Polynomial,
    seed: int,
    runs: int = DEFAULT_RUNS,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    force_general: bool = False,
    tolerance: float = 1e-10,
) -> DetectionReport:
    """Combined-curve detection: random derivative hypersurfaces, graph
    elimination, and a gcd intersection across runs.

    The singular locus decides the shape of the auxiliary ideal: when it is
    finite the hypersurface ideal is used as is; otherwise (or when forced)
    the singular locus is removed by localizing at a random derivative
    combination.  Each run must produce a set of dimension at most one,
    with up to five resamples before giving up.
    """

    def prepare():
        n = f.ring.nvars
        special = (not force_general) and is_singular_locus_finite(f)
        partials = [f.partial_derivative(j) for j in range(n)]

        def sample(rng, run_seed):
            coeffs = sample_super_polar_coefficients(
                rng, n, coeff_bound, run_seed
            )
            curve = super_polar_ideal(f, coeffs)
            escape = range(n)
            f_on_curve = f
            if not special:
                h = f.ring.zero()
                for j in range(n):
                    h = h + coeffs.beta[j] * partials[j]
                if h.is_zero():
                    return None
                curve = with_rabinowitsch(curve, h)
                escape = range(1, n + 1)
                f_on_curve = lift_polynomial(f, curve.ring)
            dim = affine_dimension(curve)
            if dim > 1:
                return dim
            return coeffs, [(curve, f_on_curve, escape, dim)]

        return ("special" if special else "general"), sample

    return _detect(
        f, "super_polar", seed, runs, coeff_bound, tolerance, prepare
    )


def run_iterated_polar(
    f: Polynomial,
    seed: int,
    runs: int = DEFAULT_RUNS,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    tolerance: float = 1e-10,
) -> DetectionReport:
    """Sliced detection: one generic coordinate change per run, then for
    each i the polar curve of the slice x_1 = ... = x_{i-1} = 0 with
    respect to its first remaining coordinate, localized away from the
    slice's singular locus.  Per-run value sets are unions over slices;
    runs are intersected as usual.
    """

    def sample(rng, run_seed):
        matrix = sample_invertible_matrix(rng, f.ring.nvars)
        slice_poly = f.substitute_linear(matrix)
        betas = []
        pieces = []
        for i in range(1, f.ring.nvars):
            if i > 1:
                slice_poly = slice_poly.restrict_hyperplane(0)
            slice_ring = slice_poly.ring
            m = slice_ring.nvars
            beta = tuple(_nonzero_int(rng, coeff_bound) for _ in range(m))
            betas.append(beta)
            partials = [slice_poly.partial_derivative(j) for j in range(m)]
            h = slice_ring.zero()
            for j in range(m):
                h = h + beta[j] * partials[j]
            if h.is_zero():
                # a constant slice lands here too: all its partials vanish
                pieces.append(ValueSet.empty({EMPTY_CURVE}))
                continue
            curve = with_rabinowitsch(Ideal(slice_ring, partials[1:]), h)
            dim = affine_dimension(curve)
            if dim > 1:
                return dim
            f_on_curve = lift_polynomial(slice_poly, curve.ring)
            pieces.append((curve, f_on_curve, range(1, m + 1), dim))
        coeffs = IteratedPolarCoefficients(
            seed=run_seed, matrix=matrix, betas=tuple(betas)
        )
        return coeffs, pieces

    return _detect(
        f,
        "iterated_polar",
        seed,
        runs,
        coeff_bound,
        tolerance,
        lambda: ("sliced", sample),
    )
