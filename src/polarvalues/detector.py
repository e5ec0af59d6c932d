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

import random
import time
import warnings

from .bounds import SingularComponentData, bound_kinf, bound_nk, bound_superpolar
from .groebner import (
    _MAX_EXPONENT,
    Ideal,
    UncertifiedResult,
    affine_dimension,
    with_rabinowitsch,
)
from .nonproper import (
    EMPTY_CURVE,
    VERTICAL_COMPONENT,
    ValueSet,
    _graph_ideal,
    nonproperness_values,
    value_line,
)
from .polynomials import Polynomial, _IntegerMap, _invertible
from .record import Record
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


class SuperPolarCoefficients(Record):
    """Random data of one combined-curve run: g_i = sum_j a[i][j] df/dx_j
    + sum_{j,k} b[i][j][k] x_k df/dx_j, plus the localization vector beta.

    Sampling order is fixed: all of a row by row, then b, then beta, with
    every entry a nonzero integer in [-bound, bound].
    """

    seed: int
    a: tuple
    b: tuple
    beta: tuple


class IteratedPolarCoefficients(Record):
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
        if _invertible(rows):
            return rows
    raise InternalInvariantError("could not sample an invertible matrix")


def _super_polar(form: _IntegerMap, coeffs: SuperPolarCoefficients) -> Ideal:
    """`super_polar_ideal` of the polynomial in `form`: x_k times a
    combination of the partials adds the packing of x_k to each key, and
    column k of b weighs the partials that x_k multiplies."""
    gens = []
    for a, b in zip(coeffs.a, coeffs.b):
        g = form.combination(a)
        for slot, column in zip(form.slots, zip(*b)):
            form.combination(column, g, 1 << slot)
        gens.append(form.polynomial(g))
    return Ideal(form.ring, gens)


def super_polar_ideal(f: Polynomial, coeffs: SuperPolarCoefficients) -> Ideal:
    """The ideal of the n-1 combined derivative hypersurfaces for f."""
    n = f.ring.nvars
    if n < 2:
        raise ValueError("need at least two variables")
    if len(coeffs.a) != n - 1 or len(coeffs.b) != n - 1:
        raise ValueError("coefficient shapes do not match the ring")
    return _super_polar(_IntegerMap.of(f), coeffs)


def gradient_ideal(f: Polynomial) -> Ideal:
    return _gradient_ideal(_IntegerMap.of(f))


def _gradient_ideal(form: _IntegerMap) -> Ideal:
    return Ideal(form.ring, [form.polynomial(d) for d in form.partials])


def _critical_graph(form: _IntegerMap):
    """The graph of the polynomial in `form` over its gradient ideal: it
    is isomorphic to the critical set, and its certificate is the
    gradient ideal's basis plus the value generator."""
    return _graph_ideal(_gradient_ideal(form), form)


def is_singular_locus_finite(f: Polynomial, graph=None) -> bool:
    """True when the critical set of f is finite (possibly empty), read
    off the graph of f over its gradient ideal (`graph`, built when not
    given), which `critical_values` then shares."""
    graph = graph or _critical_graph(_IntegerMap.of(f))
    return affine_dimension(graph.ideal) <= 0


def critical_values(
    f: Polynomial, tolerance: float = 1e-10, graph=None
) -> ValueSet:
    """The set f(Sing f), computed by eliminating down to the value line
    of the graph of f over its gradient ideal (`graph`, built when not
    given) and mapping it back to f's values."""
    graph = graph or _critical_graph(_IntegerMap.of(f))
    rho = value_line(graph)
    if rho is None:
        raise InternalInvariantError(
            "critical value projection came out dominant"
        )
    return ValueSet.from_rho(graph.to_f(rho), (), tolerance)


class _CriticalSet:
    """What the reports of one invocation ask about the critical set of f.

    Whether it is finite and which values it takes are both read off one
    graph ideal of f over grad f, so they share its certificate.  The
    values are computed once per tolerance; the warnings that computing
    them raised are raised again on every call, so each report that reads
    them carries the same warnings as if it had computed them itself.
    `form`, f's integer form, is what this graph and every curve and
    graph of both methods' reports are built from; f is checked before
    it is packed.
    """

    def __init__(self, f: Polynomial):
        if f.ring.nvars < 2:
            raise ValueError("need a map on at least two variables")
        if f.is_constant():
            raise ValueError("f must be non-constant")
        # a generic coordinate change turns the total degree into an
        # exponent, and expanding such a power before the engine sees it
        # outlasts any run
        degree = f.total_degree()
        if degree > _MAX_EXPONENT:
            raise ValueError(
                "total degree %d exceeds the engine limit of %d"
                % (degree, _MAX_EXPONENT)
            )
        self.f = f
        self.form = _IntegerMap.of(f)
        self.graph = _critical_graph(self.form)
        self._values = {}

    def finite(self) -> bool:
        return is_singular_locus_finite(self.f, self.graph)

    def values(self, tolerance: float) -> ValueSet:
        known = self._values.get(tolerance)
        if known is None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values = critical_values(self.f, tolerance, self.graph)
            known = self._values[tolerance] = (values, caught)
        values, caught = known
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return values


def intersect_runs(rhos) -> UnivariatePolynomial:
    """Gcd of per-run defining polynomials: the intersection of value sets."""
    rhos = list(rhos)
    if not rhos:
        raise ValueError("need at least one run to intersect")
    acc = rhos[0]
    for r in rhos[1:]:
        acc = gcd_univar(acc, r)
    return squarefree_part(acc)


class StepRecord(Record):
    """One hyperplane-slice step of a sliced run (1-based index)."""

    index: int
    values: ValueSet


class RunRecord(Record, uncompared=("millis",)):
    seed: int
    coefficients: object
    values: ValueSet
    dim_w: int
    attempts: int
    steps: tuple = ()
    millis: float = 0.0


class BoundsSummary(Record):
    """Degree bounds attached to a report; None marks 'not applicable'."""

    nk: object
    superpolar: object
    kinf: object


class DetectionReport(Record, uncompared=("total_millis",)):
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
    total_millis: float = 0.0


def _bounds_for(degree: int, n: int) -> BoundsSummary:
    sing = SingularComponentData.empty()
    nk = bound_nk(degree, n, sing) if degree >= 2 else None
    sp = bound_superpolar(degree, n, sing) if degree >= 2 else None
    ki = bound_kinf(degree, n, sing) if degree >= 3 else None
    return BoundsSummary(nk=nk, superpolar=sp, kinf=ki)


def _validate_input(runs: int, coeff_bound: int, tolerance: float):
    if runs < 1:
        raise ValueError("need at least one run")
    if coeff_bound < 2:
        raise ValueError("coefficient bound must be at least 2")
    # a relative residual bound; NaN fails the comparison too
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be a number in (0, 1)")


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


def _detect(f, method, seed, runs, coeff_bound, tolerance, prepare, critical):
    """`_detect_values` with the UncertifiedResult warnings it raises moved
    into the report's warnings, each message once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UncertifiedResult)
        report = _detect_values(
            f, method, seed, runs, coeff_bound, tolerance, prepare, critical
        )
    uncertified = []
    for w in caught:
        if issubclass(w.category, UncertifiedResult):
            uncertified.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if not uncertified:
        return report
    return report.replace(
        warnings=report.warnings + tuple(dict.fromkeys(uncertified)),
    )


def _detect_values(
    f, method, seed, runs, coeff_bound, tolerance, prepare, critical
):
    """The detection driver shared by both methods.

    `prepare()` runs once the input is validated and returns the report's
    case and the method's sampler.  The sampler is called as
    `sample(rng, run_seed)` once per attempt and returns either the
    failing dimension of that attempt (None when the localizing h
    vanished) or the run's coefficients and its curve pieces.  A piece is
    `(graph, escape_vars, dim)`, the graph of f over the curve with the
    dimension that the guard read off it, or a ready value set for a slice
    without a curve.  Each run gets its own generator, from which
    failed attempts are resampled up to RETRY_BUDGET times; the values
    are computed only once an attempt has passed the dimension guard.
    The critical values come from `critical`, the `_CriticalSet` of f.
    """
    _validate_input(runs, coeff_bound, tolerance)
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
                p[0], escape_vars=p[1], tolerance=tolerance
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
                dim_w=max((p[2] for p in curves), default=-1),
                attempts=attempt,
                steps=steps,
                millis=(time.perf_counter() - t_run) * 1000.0,
            )
        )

    s_rho = intersect_runs([rec.values.rho for rec in records])
    flag_union = frozenset().union(*(rec.values.flags for rec in records))
    s_final = ValueSet.from_rho(s_rho, flag_union, tolerance)
    critical = critical.values(tolerance)
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
    critical=None,
) -> DetectionReport:
    """Combined-curve detection: random derivative hypersurfaces, graph
    elimination, and a gcd intersection across runs.

    The singular locus decides the shape of the auxiliary ideal: when it is
    finite the hypersurface ideal is used as is; otherwise (or when forced)
    the singular locus is removed by localizing at a random derivative
    combination.  Each run must produce a set of dimension at most one,
    with up to five resamples before giving up.  `critical`, the
    `_CriticalSet` of f, lets several reports share its work (`cli.run`
    passes one to both methods); None builds one.
    """
    critical = critical or _CriticalSet(f)

    def prepare():
        n = f.ring.nvars
        special = (not force_general) and critical.finite()
        form = critical.form

        def sample(rng, run_seed):
            coeffs = sample_super_polar_coefficients(
                rng, n, coeff_bound, run_seed
            )
            curve = _super_polar(form, coeffs)
            escape = range(n)
            if not special:
                h = form.polynomial(form.combination(coeffs.beta))
                if h.is_zero():
                    return None
                curve = with_rabinowitsch(curve, h)
                escape = range(1, n + 1)
            graph = _graph_ideal(curve, form)
            dim = affine_dimension(graph.ideal)
            if dim > 1:
                return dim
            return coeffs, [(graph, escape, dim)]

        return ("special" if special else "general"), sample

    return _detect(
        f, "super_polar", seed, runs, coeff_bound, tolerance, prepare, critical
    )


def run_iterated_polar(
    f: Polynomial,
    seed: int,
    runs: int = DEFAULT_RUNS,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    tolerance: float = 1e-10,
    critical=None,
) -> DetectionReport:
    """Sliced detection: one generic coordinate change per run, then for
    each i the polar curve of the slice x_1 = ... = x_{i-1} = 0 with
    respect to its first remaining coordinate, localized away from the
    slice's singular locus.  Per-run value sets are unions over slices;
    runs are intersected as usual.  `critical` is as for
    `run_super_polar`.
    """

    critical = critical or _CriticalSet(f)
    form = critical.form

    def sample(rng, run_seed):
        n = f.ring.nvars
        matrix = sample_invertible_matrix(rng, n)
        slice_map = form.substitute(matrix)
        betas = []
        pieces = []
        for i in range(1, n):
            if i > 1:
                slice_map = slice_map.restricted(0)
            ring = slice_map.ring
            m = ring.nvars
            beta = tuple(_nonzero_int(rng, coeff_bound) for _ in range(m))
            betas.append(beta)
            h = slice_map.polynomial(slice_map.combination(beta))
            if h.is_zero():
                # a constant slice lands here too: all its partials vanish
                pieces.append(ValueSet.empty({EMPTY_CURVE}))
                continue
            partials = [slice_map.polynomial(d) for d in slice_map.partials[1:]]
            curve = with_rabinowitsch(Ideal(ring, partials), h)
            graph = _graph_ideal(curve, slice_map)
            dim = affine_dimension(graph.ideal)
            if dim > 1:
                return dim
            pieces.append((graph, range(1, m + 1), dim))
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
        critical,
    )
