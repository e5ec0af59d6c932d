"""Univariate polynomial helpers: gcd, squarefree part, roots; the shift oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarvalues.univar import (
    UnivariatePolynomial,
    approx_roots_with_status,
    gcd_univar,
    rational_roots,
    squarefree_part,
)

import oracles


def P(*coeffs):
    """Polynomial from low-to-high coefficients."""
    return UnivariatePolynomial([Fraction(c) for c in coeffs])


coeff_lists = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=0, max_size=6
)


class TestBasics:
    def test_degree_and_zero(self):
        assert UnivariatePolynomial.zero().is_zero()
        assert UnivariatePolynomial.one().is_one()
        assert P(0, 0, 3).degree() == 2
        assert P(0, 0, 0).is_zero()

    def test_arithmetic_round_trip(self):
        a, b = P(1, 2), P(-3, 0, 1)
        q, r = divmod(a * b + P(5), a)
        assert q * a + r == a * b + P(5)

    def test_call_evaluates(self):
        p = P(-1, 0, 1)  # z^2 - 1
        assert p(Fraction(3)) == 8
        assert p(1) == 0

    def test_canonical_integer_form(self):
        p = P(Fraction(1, 2), Fraction(3, 2)).canonical()
        assert p == P(1, 3)
        assert P(-2, -4).canonical() == P(1, 2)

    def test_divides(self):
        assert (P(1, -2, 1) % P(-1, 1)).is_zero()     # (z-1) | (z-1)^2
        assert not (P(1, -2, 1) % P(1, 1)).is_zero()


class TestGcdSquarefree:
    @settings(max_examples=60, deadline=None)
    @given(coeff_lists, coeff_lists)
    def test_gcd_matches_oracle(self, a, b):
        p, q = P(*a), P(*b)
        if p.is_zero() and q.is_zero():
            with pytest.raises(ValueError):
                gcd_univar(p, q)
            return
        ours = gcd_univar(p, q)
        ref = oracles.u_gcd(a, b)
        # both conventions: compare after canonicalization
        assert ours.canonical() == UnivariatePolynomial(ref).canonical()

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists)
    def test_squarefree_matches_oracle(self, a):
        p = P(*a)
        if p.is_zero():
            return
        ours = squarefree_part(p)
        ref = oracles.u_squarefree(a)
        assert ours.canonical() == UnivariatePolynomial(ref).canonical()

    def test_squarefree_collapses_powers(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        assert squarefree_part(p) == (P(-1, 1) * P(2, 1)).canonical()


class TestRoots:
    def test_rational_roots_exact(self):
        p = P(-2, 1) * P(3, 2) * P(1, 0, 1)  # roots 2, -3/2, +-i
        roots = set(rational_roots(p))
        assert roots == {Fraction(2), Fraction(-3, 2)}

    def test_rational_roots_at_zero(self):
        assert set(rational_roots(P(0, 1))) == {Fraction(0)}
        assert set(rational_roots(P(0, 0, 5))) == {Fraction(0)}

    def test_rational_roots_beyond_trial_division(self):
        # two roots above 10**6 whose product is no small-factor composite
        p = P(-1000003, 1) * P(-1000033, 1)
        assert rational_roots(p) == [Fraction(1000003), Fraction(1000033)]

    def test_rational_roots_huge_fractions(self):
        a, b = Fraction(10**40 + 1, 7), Fraction(-(5 * 10**20 + 1), 3)
        p = P(-a.numerator, a.denominator) * P(-b.numerator, b.denominator)
        assert rational_roots(p * P(1, 1, 1)) == [b, a]

    def test_rational_roots_colliding_mod_small_primes(self):
        # the roots agree modulo every prime below 50, so each of those
        # primes sees a multiple root and a larger prime must be used
        m = 1
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            m *= q
        p = P(-m, 1) * P(-2 * m, 1) * P(3 * m, 1) * P(-7, 2)
        expected = [Fraction(-3 * m), Fraction(7, 2), Fraction(m), Fraction(2 * m)]
        assert rational_roots(p) == expected

    def test_rational_roots_repeated(self):
        p = P(-2, 1) * P(-2, 1) * P(-2, 1) * P(1, 3) * P(1, 3)
        assert rational_roots(p) == [Fraction(-1, 3), Fraction(2)]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-10**15, max_value=10**15),
                st.integers(min_value=1, max_value=10**6),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_roots_from_known_factors(self, pairs, c):
        # linear factors with known roots times z^2 + c, which has none
        p = P(c, 0, 1)
        for num, den in pairs:
            p = p * P(-num, den)
        assert rational_roots(p) == sorted({Fraction(a, b) for a, b in pairs})

    def test_approx_roots_cover_all(self):
        p = P(-1, 0, 1) * P(1, 0, 1)  # +-1, +-i
        roots, converged = approx_roots_with_status(p, 1e-10)
        assert converged
        assert len(roots) == 4
        expected = {1, -1, 1j, -1j}
        for e in expected:
            assert min(abs(r - e) for r in roots) < 1e-8

    def test_approx_roots_simple(self):
        roots, _ = approx_roots_with_status(P(-4, 0, 1))
        assert sorted(round(r.real) for r in roots) == [-2, 2]

    def test_approx_roots_of_a_constant(self):
        # a nonzero constant, what is left of a value set's polynomial
        # once its rational roots are deflated, has no roots; every number
        # is a root of zero
        assert approx_roots_with_status(P(7)) == ([], True)
        with pytest.raises(ValueError):
            approx_roots_with_status(P())

    def test_approx_root_beyond_float_range(self):
        # z - 10^400: its coefficients and root do not fit a float; the
        # root is still listed, as an infinity, and marked unconverged
        roots, converged = approx_roots_with_status(P(-(10**400), 1))
        assert roots == [complex(float("inf"), 0.0)]
        assert not converged

    def test_approx_roots_of_huge_coefficients(self):
        # z^3 - 2^3000 has roots of modulus 2^1000, which floats hold,
        # though its constant term does not
        roots, converged = approx_roots_with_status(P(-(2**3000), 0, 0, 1))
        assert converged
        assert len(roots) == 3
        for r in roots:
            assert abs(abs(r) / 2.0**1000 - 1) < 1e-9
        assert max(r.real for r in roots) == pytest.approx(2.0**1000)

    def test_approx_roots_far_apart(self):
        # (z - 1)(z - 10^200): z^2 leaves the float range near the large
        # root, and the small one must not be lost beside it
        roots, converged = approx_roots_with_status(P(-1, 1) * P(-(10**200), 1))
        assert converged
        assert roots[0] == pytest.approx(1, rel=1e-9)
        assert roots[1] == pytest.approx(1e200, rel=1e-9)

    def test_approx_roots_below_one_judged_relatively(self):
        # (z - 10^-12)(z - 2*10^-12): an absolute residual test passes
        # approximations about 10^6 times too large as converged
        small = Fraction(1, 10**12)
        p = P(-small, 1) * P(-2 * small, 1)
        roots, converged = approx_roots_with_status(p)
        assert converged
        assert roots[0] == pytest.approx(1e-12, rel=1e-6, abs=0)
        assert roots[1] == pytest.approx(2e-12, rel=1e-6, abs=0)


class TestShift:
    def test_shift_moves_roots_forward(self):
        p = P(0, 1)  # z
        q = oracles.shift(p, 5)  # roots move to 5
        assert q(Fraction(5)) == 0
        assert q == P(-5, 1)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists, st.integers(min_value=-5, max_value=5))
    def test_shift_round_trip(self, a, c):
        p = P(*a)
        assert oracles.shift(oracles.shift(p, c), -c) == p


class TestValidation:
    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), UnivariatePolynomial.zero())
