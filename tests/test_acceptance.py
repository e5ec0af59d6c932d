"""End-to-end gate: nine verification criteria, one verdict line each.

Each test records ACCEPTANCE <n>: PASS/FAIL (printed in the terminal
summary by conftest.py) and fails normally on any violated assertion.
The whole gate is budgeted to finish in well under five minutes.
"""

import random
import time
from fractions import Fraction

from polarvalues.bounds import bound_nk, bound_superpolar
from polarvalues.cli import RunConfig, reports_to_json, run
from polarvalues.detector import (
    critical_values,
    run_iterated_polar,
    run_super_polar,
    sample_invertible_matrix,
)
from polarvalues.groebner import Ideal, buchberger, eliminate
from polarvalues.nonproper import EMPTY_CURVE
from polarvalues.polynomials import Polynomial, PolynomialRing
from polarvalues.univar import UnivariatePolynomial, gcd_univar

import oracles

R2 = PolynomialRing(("x", "y"))
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"))
X3, Y3 = R3.variable("x"), R3.variable("y")

F2 = X + X**2 * Y
F3 = X3 + X3**2 * Y3
ZERO, Z_POLY = Fraction(0), UnivariatePolynomial([Fraction(0), Fraction(1)])


def _verdict(record, number, body):
    began = time.perf_counter()
    try:
        body()
    except BaseException as exc:
        elapsed = time.perf_counter() - began
        record(number, False, "%.1fs %s" % (elapsed, str(exc)[:90]))
        raise
    record(number, True, "%.1fs" % (time.perf_counter() - began))


def rand_poly(rng, ring, max_deg=3, max_terms=4, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = Fraction(c)
    return Polynomial(ring, terms)


def test_criterion_1(record_acceptance):
    """Two-variable fixture, three seeds: exactly {0}, each run under 2 s."""

    def body():
        for seed in (0, 1, 2):
            rep = run_super_polar(F2, seed=seed, runs=3)
            assert rep.s_final.rho == Z_POLY, rep.s_final.rho
            assert rep.s_final.exact_rational_roots == (ZERO,)
            assert len(rep.s_final.approx_roots) == 1
            assert all(rec.millis < 2000 for rec in rep.runs)

    _verdict(record_acceptance, 1, body)


def test_criterion_2(record_acceptance):
    """Three-variable fixture: step structure and the detected superset."""

    def body():
        began = time.perf_counter()
        rep_it = run_iterated_polar(F3, seed=0, runs=1, coeff_bound=5)
        steps = rep_it.runs[0].steps
        assert len(steps) == 2
        assert steps[0].values.is_empty()
        assert EMPTY_CURVE in steps[0].values.flags
        assert steps[1].values.exact_rational_roots == (ZERO,)
        rep_sp = run_super_polar(F3, seed=0, runs=1, coeff_bound=5)
        assert ZERO in rep_sp.s_final.exact_rational_roots
        assert time.perf_counter() - began < 30

    _verdict(record_acceptance, 2, body)


def test_criterion_3(record_acceptance):
    """Negative fixtures: empty detected set; critical values separate."""

    def body():
        began = time.perf_counter()
        rep_lin = run_super_polar(X, seed=0, runs=3)
        assert rep_lin.s_final.is_empty()
        assert rep_lin.critical.is_empty()
        assert time.perf_counter() - began < 5
        began = time.perf_counter()
        rep_quad = run_super_polar(X**2 + Y**2, seed=0, runs=3)
        assert rep_quad.s_final.is_empty()
        assert rep_quad.critical.exact_rational_roots == (ZERO,)
        assert time.perf_counter() - began < 5

    _verdict(record_acceptance, 3, body)


def test_criterion_4(record_acceptance):
    """Critical values of x^3 - 3x + y^2 are exactly {-2, 2}."""

    def body():
        began = time.perf_counter()
        cv = critical_values(X**3 - 3 * X + Y**2)
        assert time.perf_counter() - began < 2
        assert cv.rho == UnivariatePolynomial(
            [Fraction(-4), Fraction(0), Fraction(1)]
        )
        assert set(cv.exact_rational_roots) == {Fraction(-2), Fraction(2)}
        assert len(cv.approx_roots) == 2

    _verdict(record_acceptance, 4, body)


def test_criterion_5(record_acceptance):
    """Projection roots are contained in Sylvester-resultant roots."""

    def body():
        rng = random.Random(41)

        def nonzero_poly():
            while True:
                cand = rand_poly(rng, R2, max_deg=3, max_terms=4, bound=5)
                if not cand.is_zero():
                    return cand

        done = 0
        for _ in range(50):
            p = nonzero_poly()
            q = nonzero_poly()
            elems = eliminate(Ideal(R2, [p, q]), {1})
            if not elems:
                done += 1
                continue

            def to_univar(e):
                return UnivariatePolynomial(
                    [
                        e.terms.get((0, j), Fraction(0))
                        for j in range(e.degree_in(1) + 1)
                    ]
                )

            gen = to_univar(elems[0])
            for e in elems[1:]:
                gen = gcd_univar(gen, to_univar(e))
            res = oracles.sylvester_resultant_x(
                {m: c for m, c in p.terms.items()},
                {m: c for m, c in q.terms.items()},
            )
            if oracles.u_is_zero(res):
                done += 1
                continue
            ours = oracles.u_squarefree(
                [Fraction(c) for c in gen.coefficients]
            )
            theirs = oracles.u_squarefree(res)
            assert oracles.u_divides(ours, theirs), (str(p), str(q))
            done += 1
        assert done == 50

    _verdict(record_acceptance, 5, body)


def test_criterion_6(record_acceptance):
    """Random ideals: output S-pairs and input generators reduce to zero."""

    def body():
        rng = random.Random(202)
        rings = [R2, R3]
        for trial in range(200):
            ring = rings[trial % 2]
            gens = [
                rand_poly(rng, ring, max_deg=3, max_terms=3, bound=4)
                for _ in range(rng.randint(1, 3))
            ]
            gb = buchberger(Ideal(ring, gens))
            elems = [e for e in gb.elements if not e.is_zero()]
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    s = oracles.s_polynomial(elems[i], elems[j])
                    if not s.is_zero():
                        assert oracles.normal_form(s, elems).is_zero()
            for g in gens:
                if not g.is_zero():
                    assert oracles.normal_form(g, elems).is_zero()

    _verdict(record_acceptance, 6, body)


def test_criterion_7(record_acceptance):
    """Bound identities over the (degree, variables) grid."""

    def body():
        for d in range(3, 10):
            for n in range(2, 7):
                assert bound_nk(d, n) == sum(
                    (d - 1) ** k for k in range(n)
                )
        assert bound_superpolar(3, 3) == 8
        assert bound_nk(3, 2) == 3

    _verdict(record_acceptance, 7, body)


def test_criterion_8(record_acceptance):
    """Detected sets are stable under linear coordinate changes and shifts."""

    def body():
        began = time.perf_counter()
        fixtures = [
            (F2, dict(runs=3)),
            (F3, dict(runs=1, coeff_bound=5)),
            (X, dict(runs=3)),
            (X**2 + Y**2, dict(runs=3)),
        ]
        rng = random.Random(8)
        for f, params in fixtures:
            base = run_super_polar(f, seed=0, **params)
            n = f.ring.nvars
            for _ in range(3):
                t_matrix = sample_invertible_matrix(rng, n, bound=2)
                moved = run_super_polar(
                    f.substitute_linear(t_matrix), seed=0, **params
                )
                assert moved.s_final.rho == base.s_final.rho, t_matrix
                assert (
                    moved.s_final.exact_rational_roots
                    == base.s_final.exact_rational_roots
                )
            shifted = run_super_polar(f + 5, seed=0, **params)
            assert shifted.s_final.rho == oracles.shift(
                base.s_final.rho, 5
            ).canonical()
        assert time.perf_counter() - began < 120

    _verdict(record_acceptance, 8, body)


def test_criterion_9(record_acceptance):
    """Same seed twice: byte-identical JSON."""

    def body():
        config = RunConfig(method="super_polar", seed=0, runs=3)
        first = reports_to_json(run(config, F2))
        second = reports_to_json(run(config, F2))
        assert first == second
        assert '"schema": 1' in first

    _verdict(record_acceptance, 9, body)
