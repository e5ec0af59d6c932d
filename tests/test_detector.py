"""Detection pipelines: sampling, auxiliary ideals, runs, intersection."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from polarvalues.detector import (
    DimensionGuardError,
    RETRY_BUDGET,
    critical_values,
    derive_run_seed,
    gradient_ideal,
    intersect_runs,
    is_singular_locus_finite,
    run_iterated_polar,
    run_super_polar,
    sample_invertible_matrix,
    sample_super_polar_coefficients,
    splitmix64,
    super_polar_ideal,
)
from polarvalues.groebner import affine_dimension
from polarvalues.nonproper import EMPTY_CURVE, VERTICAL_COMPONENT
from polarvalues.polynomials import PolynomialRing
from polarvalues.univar import UnivariatePolynomial

import oracles

R2 = PolynomialRing(("x", "y"))
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"))
X3, Y3 = R3.variable("x"), R3.variable("y")


def U(*coeffs):
    return UnivariatePolynomial([Fraction(c) for c in coeffs])


class TestSeeding:
    def test_splitmix_is_deterministic_64bit(self):
        a = splitmix64(0)
        b = splitmix64(0)
        assert a == b
        assert 0 <= a < 1 << 64
        assert splitmix64(1) != a

    def test_run_seeds_distinct(self):
        seeds = [derive_run_seed(7, k) for k in range(50)]
        assert len(set(seeds)) == 50

    def test_sampling_reproducible(self):
        c1 = sample_super_polar_coefficients(random.Random(5), 3, 99, 5)
        c2 = sample_super_polar_coefficients(random.Random(5), 3, 99, 5)
        assert c1 == c2
        assert all(v != 0 for row in c1.a for v in row)
        assert all(v != 0 for v in c1.beta)

    def test_invertible_matrix(self):
        m = sample_invertible_matrix(random.Random(3), 3)
        # determinant nonzero by construction; verify independently
        a = [[Fraction(v) for v in row] for row in m]
        det = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert det != 0


class TestAuxiliaryIdeals:
    def test_super_polar_explicit_coefficients(self):
        from polarvalues.detector import SuperPolarCoefficients

        f = X + X**2 * Y
        coeffs = SuperPolarCoefficients(
            seed=0,
            a=((1, 1),),
            b=(((1, 0), (0, 1)),),
            beta=(1, 1),
        )
        ideal = super_polar_ideal(f, coeffs)
        fx = R2.one() + 2 * X * Y
        fy = X**2
        expected = fx + fy + X * fx + Y * fy
        assert len(ideal.generators) == 1
        assert ideal.generators[0] == expected

    def test_gradient_ideal(self):
        g = gradient_ideal(X**2 + Y**2)
        assert len(g.generators) == 2
        assert affine_dimension(g) == 0

    def test_singular_locus_finiteness(self):
        assert is_singular_locus_finite(X**2 + Y**2)
        assert is_singular_locus_finite(X + X**2 * Y)  # empty singular set
        # f = x^2: singular locus is the whole y-axis
        assert not is_singular_locus_finite(X**2)


class TestCriticalValues:
    def test_no_critical_points(self):
        assert critical_values(X).is_empty()
        assert critical_values(X + X**2 * Y).is_empty()

    def test_single_value(self):
        cv = critical_values(X**2 + Y**2)
        assert cv.rho == U(0, 1)
        assert cv.exact_rational_roots == (Fraction(0),)

    def test_two_values(self):
        cv = critical_values(X**3 - 3 * X + Y**2)
        assert cv.rho == U(-4, 0, 1)
        assert set(cv.exact_rational_roots) == {Fraction(-2), Fraction(2)}

    def test_positive_dimensional_singular_locus(self):
        # f = x^2 y: gradient (2xy, x^2), Sing = the y-axis, f = 0 there
        cv = critical_values(X**2 * Y)
        assert cv.exact_rational_roots == (Fraction(0),)


class TestIntersectRuns:
    def test_gcd_of_runs(self):
        a = U(0, 1) * U(-1, 1)   # roots 0, 1
        b = U(0, 1) * U(-2, 1)   # roots 0, 2
        assert intersect_runs([a, b]) == U(0, 1)

    def test_single_run_squarefreed(self):
        assert intersect_runs([U(0, 0, 1)]) == U(0, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect_runs([])


class TestSuperPolarRuns:
    def test_two_variable_fixture(self):
        rep = run_super_polar(X + X**2 * Y, seed=0, runs=3)
        assert rep.method == "super_polar"
        assert rep.case == "special"
        assert rep.s_final.rho == U(0, 1)
        assert rep.s_final.exact_rational_roots == (Fraction(0),)
        assert len(rep.runs) == 3
        assert all(rec.dim_w <= 1 for rec in rep.runs)

    def test_forced_general_case_same_answer(self):
        rep = run_super_polar(
            X + X**2 * Y, seed=0, runs=2, force_general=True
        )
        assert rep.case == "general"
        assert rep.s_final.rho == U(0, 1)

    def test_negative_fixture_linear(self):
        rep = run_super_polar(X, seed=0, runs=3)
        assert rep.s_final.is_empty()
        assert rep.critical.is_empty()

    def test_negative_fixture_quadric(self):
        rep = run_super_polar(X**2 + Y**2, seed=0, runs=3)
        assert rep.s_final.is_empty()
        assert rep.critical.exact_rational_roots == (Fraction(0),)

    def test_determinism_same_seed(self):
        r1 = run_super_polar(X + X**2 * Y, seed=42, runs=2)
        r2 = run_super_polar(X + X**2 * Y, seed=42, runs=2)
        assert r1.s_final == r2.s_final
        assert [rec.values for rec in r1.runs] == [
            rec.values for rec in r2.runs
        ]
        assert [rec.coefficients for rec in r1.runs] == [
            rec.coefficients for rec in r2.runs
        ]

    def test_bounds_attached(self):
        rep = run_super_polar(X + X**2 * Y, seed=0, runs=1)
        assert rep.degree == 3
        assert rep.bounds.nk == 3
        assert rep.bounds.superpolar == 1
        assert rep.bounds.kinf == 3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_super_polar(R2.constant(3), seed=0)
        with pytest.raises(ValueError):
            run_super_polar(X, seed=0, runs=0)
        with pytest.raises(ValueError):
            run_super_polar(X, seed=0, coeff_bound=1)
        one_var = PolynomialRing(("x",))
        with pytest.raises(ValueError):
            run_super_polar(one_var.variable("x"), seed=0)

    @pytest.mark.parametrize("runner", [run_super_polar, run_iterated_polar])
    def test_single_variable_checked_before_it_is_packed(self, runner):
        # packing x^40000 would fail on its exponent first
        one_var = PolynomialRing(("x",))
        with pytest.raises(
            ValueError, match="^need a map on at least two variables$"
        ):
            runner(one_var.variable("x") ** 40000, seed=0)

    @pytest.mark.parametrize(
        "tolerance", [0.0, -1.0, 1.0, float("nan"), float("inf")]
    )
    def test_tolerance_validation(self, tolerance):
        for runner in (run_super_polar, run_iterated_polar):
            with pytest.raises(ValueError, match="tolerance"):
                runner(X + X**2 * Y, seed=0, runs=1, tolerance=tolerance)

    def test_a_vanishing_localizer_is_resampled(self, monkeypatch):
        # beta = 0 makes h = sum beta_j df/dx_j vanish: the attempt has no
        # curve, and its resample is recorded with dimension None
        import polarvalues.detector as detector

        draw = detector.sample_super_polar_coefficients
        f = X + X**2 * Y
        monkeypatch.setattr(
            detector,
            "sample_super_polar_coefficients",
            lambda *args: draw(*args).replace(beta=(0, 0)),
        )
        with pytest.raises(DimensionGuardError) as err:
            run_super_polar(f, seed=0, runs=1, force_general=True)
        assert err.value.dimensions == (None,) * (RETRY_BUDGET + 1)

        draws = []

        def first_vanishes(*args):
            draws.append(draw(*args))
            if len(draws) == 1:
                return draws[0].replace(beta=(0, 0))
            return draws[-1]

        monkeypatch.setattr(
            detector, "sample_super_polar_coefficients", first_vanishes
        )
        rep = run_super_polar(f, seed=0, runs=1, force_general=True)
        assert rep.runs[0].attempts == 2
        assert rep.runs[0].coefficients == draws[1]
        assert rep.s_final.rho == U(0, 1)
        assert rep.warnings[0] == "run 0: dimension guard resampled 1 time(s)"

    def test_dimension_guard_raises_after_budget(self, monkeypatch):
        import polarvalues.detector as detector

        monkeypatch.setattr(detector, "affine_dimension", lambda ideal: 2)
        with pytest.raises(DimensionGuardError) as err:
            run_super_polar(X + X**2 * Y, seed=0, runs=1)
        assert len(err.value.dimensions) == RETRY_BUDGET + 1


class TestIteratedPolarRuns:
    def test_three_variable_fixture_steps(self):
        f = X3 + X3**2 * Y3
        rep = run_iterated_polar(f, seed=0, runs=1, coeff_bound=5)
        steps = rep.runs[0].steps
        assert len(steps) == 2
        assert steps[0].values.is_empty()
        assert EMPTY_CURVE in steps[0].values.flags
        assert steps[1].values.exact_rational_roots == (Fraction(0),)
        assert rep.s_final.exact_rational_roots == (Fraction(0),)

    def test_two_variable_fixture(self):
        rep = run_iterated_polar(X + X**2 * Y, seed=0, runs=2)
        assert rep.s_final.rho == U(0, 1)
        assert all(len(rec.steps) == 1 for rec in rep.runs)

    def test_negative_fixture(self):
        rep = run_iterated_polar(X**2 + Y**2, seed=1, runs=2)
        assert rep.s_final.is_empty()

    def test_a_vanishing_localizer_is_an_empty_curve_step(self, monkeypatch):
        # the first slice's beta drawn as 0 makes its h vanish: the slice
        # has no curve and its step is an empty value set flagged
        # empty_curve.  The draws stay the same, so the second slice is
        # the one of the unstubbed run
        import polarvalues.detector as detector

        f = X3 + X3**2 * Y3
        plain = run_iterated_polar(f, seed=0, runs=1, coeff_bound=5)
        draw = detector._nonzero_int
        count = []

        def first_slice_zero(rng, bound):
            count.append(draw(rng, bound))
            return 0 if len(count) <= 3 else count[-1]

        monkeypatch.setattr(detector, "_nonzero_int", first_slice_zero)
        rep = run_iterated_polar(f, seed=0, runs=1, coeff_bound=5)
        assert rep.runs[0].attempts == 1
        steps = rep.runs[0].steps
        assert steps[0].values.is_empty()
        assert steps[0].values.flags == {EMPTY_CURVE}
        assert steps[1] == plain.runs[0].steps[1]
        drawn = plain.runs[0].coefficients
        assert rep.runs[0].coefficients == drawn.replace(
            betas=((0, 0, 0),) + drawn.betas[1:]
        )
        assert rep.s_final == plain.s_final


class TestCovariance:
    def test_shift_moves_detected_values(self):
        base = run_super_polar(X + X**2 * Y, seed=0, runs=3)
        shifted = run_super_polar(X + X**2 * Y + 5, seed=0, runs=3)
        assert shifted.s_final.rho == oracles.shift(
            base.s_final.rho, 5
        ).canonical()
        assert shifted.s_final.exact_rational_roots == (Fraction(5),)

    def test_linear_change_of_coordinates(self):
        f = X + X**2 * Y
        swap = ((0, 1), (1, 0))
        rep = run_super_polar(f.substitute_linear(swap), seed=3, runs=3)
        assert rep.s_final.exact_rational_roots == (Fraction(0),)


class TestReportShape:
    def test_final_warnings_of_stubbed_values(self, monkeypatch):
        # every run reads two values, (z - 1)(z - 2), unconverged and
        # flagged vertical_component, where the superpolar bound of a
        # cubic in two variables is 1
        import polarvalues.detector as detector

        values = detector.ValueSet.from_rho(
            U(2, -3, 1), {VERTICAL_COMPONENT}
        ).replace(approx_converged=False)
        monkeypatch.setattr(
            detector, "nonproperness_values", lambda *a, **k: values
        )
        rep = run_super_polar(X + X**2 * Y, seed=0, runs=2)
        assert rep.bounds.superpolar == 1
        assert rep.s_final.exact_rational_roots == (1, 2)
        assert rep.warnings == (
            "run 0: numeric root refinement did not meet tolerance",
            "run 1: numeric root refinement did not meet tolerance",
            "some runs met components where the map is constant; reported "
            "values are a superset (vertical_component)",
            "final value count exceeds the curve degree bound; vertical "
            "components have likely inflated the set",
        )

    def test_report_carries_run_records(self):
        rep = run_super_polar(X + X**2 * Y, seed=9, runs=2)
        assert rep.runs_requested == 2
        assert rep.seed == 9
        assert all(rec.millis >= 0 for rec in rep.runs)
        assert rep.total_millis >= sum(rec.millis for rec in rep.runs) * 0.5
        assert rep.variables == ("x", "y")

    def test_vertical_component_warning_propagates(self):
        # constant-on-component behavior must surface in warnings when the
        # auxiliary curve contains such a component; exercised through the
        # iterated method on x^2 + x*y, whose first run's slice meets such
        # a component at the value 0
        rep = run_iterated_polar(X**2 + X * Y, seed=0, runs=2)
        assert [rec.values.flags for rec in rep.runs] == [
            {VERTICAL_COMPONENT}, set(),
        ]
        assert [rec.values.rho for rec in rep.runs] == [U(0, 1), U(1)]
        assert (
            "some runs met components where the map is constant; reported "
            "values are a superset (vertical_component)"
        ) in rep.warnings


def _ideal_of(certificate):
    """The ideal a certificate stands for: its ring and its generators,
    each made primitive."""
    from polarvalues.groebner import _to_engine

    return certificate.ring.variables, frozenset(
        frozenset(_to_engine(g, certificate.codec).items())
        for g in certificate.generators
    )


class TestOneCertificatePerIdeal:
    @pytest.mark.parametrize("runner", [run_super_polar, run_iterated_polar])
    def test_curve_and_graph_share_one_certificate(self, monkeypatch, runner):
        """The dimension guard reads the graph ideal's certificate, so no
        modular chain runs on a sampled curve's own generators, and each
        graph's certificate is built once: the guard, the elimination chain
        and the fiber-relation memberships share it.  That certificate is
        the curve's graded basis plus the value generator, so the curve's
        certificate is now built too, once per graph, from its homogenized
        generators."""
        import polarvalues.detector as detector
        from polarvalues import groebner, nonproper

        graphs = []
        chains = []
        builds = Counter()
        make_graph = detector._graph_ideal
        chain = groebner._modular_chain
        build = groebner._Certificate._build

        def recording_graph(base, form):
            graphs.append((base, make_graph(base, form)))
            return graphs[-1][1]

        def recording_chain(certificate, *rest):
            chains.append(certificate)
            return chain(certificate, *rest)

        def counting_build(certificate):
            builds[_ideal_of(certificate)] += 1
            build(certificate)

        for module in (detector, nonproper):
            monkeypatch.setattr(module, "_graph_ideal", recording_graph)
        monkeypatch.setattr(groebner, "_modular_chain", recording_chain)
        monkeypatch.setattr(groebner._Certificate, "_build", counting_build)
        runner(X3 + X3**2 * Y3, seed=0, runs=1, coeff_bound=5)

        # the sampled curves, and the gradient ideal of critical_values
        assert len(graphs) >= 2
        bases = set()
        for base, _ in graphs:
            bases.add(_ideal_of(groebner._Certificate(base)))
        assert not [c for c in chains if _ideal_of(c) in bases]
        for _, graph in graphs:
            shared = groebner._certificate(graph.ideal)
            assert builds[_ideal_of(shared)] == 1
            assert all(c is shared for c in chains
                       if _ideal_of(c) == _ideal_of(shared))
