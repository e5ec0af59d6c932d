"""Ring arithmetic, orders, and structural operations on polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarvalues.polynomials import (
    Polynomial,
    PolynomialRing,
    extend_ring,
    fresh_variable_name,
    lift_polynomial,
    monomial_add,
)

import oracles

R2 = PolynomialRing(("x", "y"))
X, Y = R2.variable("x"), R2.variable("y")


def rand_poly(rng, ring, max_deg=3, max_terms=4, bound=5):
    terms = {}
    n = ring.nvars
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = Fraction(c)
    return Polynomial(ring, terms)


small_coeff = st.integers(min_value=-9, max_value=9)
small_exp = st.integers(min_value=0, max_value=4)


@st.composite
def polys(draw, nvars=2):
    ring = R2 if nvars == 2 else PolynomialRing(tuple("abcdef"[:nvars]))
    nterms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(small_exp) for _ in range(nvars))
        c = draw(small_coeff)
        if c:
            terms[exps] = Fraction(c)
    return Polynomial(ring, terms)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_add_mul_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + R2.zero() == p
        assert p * R2.one() == p
        assert p - p == R2.zero()

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_pow_matches_repeated_mul(self, p):
        assert p**0 == R2.one()
        assert p**1 == p
        assert p**3 == p * p * p

    def test_zero_coefficients_dropped(self):
        p = R2.polynomial({(1, 0): Fraction(0)})
        assert p.is_zero()
        assert (X - X).terms == {}


class TestMonomials:
    def test_lcm_divides_sub(self):
        a, b = (2, 1), (1, 3)
        assert oracles.monomial_lcm(a, b) == (2, 3)
        assert oracles.monomial_divides(a, (2, 5))
        assert not oracles.monomial_divides(a, (1, 5))
        assert oracles.monomial_sub((4, 5), a) == (2, 4)
        assert monomial_add(a, b) == (3, 4)

    def test_str_lists_terms_in_lex_order(self):
        # lex with x > y: x beats any power of y, then the y-degree decides
        assert str(Y**5 - 2 * X + X**2 * Y + X**2) == "x^2*y + x^2 - 2*x + y^5"


class TestCalculus:
    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_derivative_is_linear_and_leibniz(self, p, q):
        dp = p.partial_derivative(0)
        dq = q.partial_derivative(0)
        assert (p + q).partial_derivative(0) == dp + dq
        assert (p * q).partial_derivative(0) == dp * q + p * dq

    def test_partials_of_fixture(self):
        f = X + X**2 * Y
        assert f.partial_derivative(0) == R2.one() + 2 * X * Y
        assert f.partial_derivative(1) == X**2

    def test_total_degree_and_degree_in(self):
        f = X + X**2 * Y
        assert f.total_degree() == 3
        assert f.degree_in(0) == 2
        assert f.degree_in(1) == 1
        assert R2.zero().total_degree() == float("-inf")


class TestSubstitutions:
    def test_substitute_linear_identity(self):
        f = X**3 - 3 * X + Y**2
        assert f.substitute_linear(((1, 0), (0, 1))) == f

    def test_substitute_linear_swap_round_trip(self):
        f = X**2 * Y + 7 * Y
        swap = ((0, 1), (1, 0))
        assert f.substitute_linear(swap).substitute_linear(swap) == f

    def test_substitute_linear_composition(self):
        import random

        rng = random.Random(5)
        a = ((1, 2), (0, 1))
        b = ((1, 0), (3, 1))
        f = rand_poly(rng, R2)
        once = f.substitute_linear(a).substitute_linear(b)
        # matrix product in the order matching substitution composition
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert once == f.substitute_linear(prod)

    def test_substitute_linear_matches_repeated_products(self):
        # the multinomial expansion against images multiplied out by `*`,
        # zero and rational entries included
        import random

        rng = random.Random(11)
        entries = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
        for nvars in (1, 2, 3):
            ring = PolynomialRing(tuple("abc"[:nvars]))
            gens = ring.gens()
            checked = 0
            while checked < 12:
                matrix = [
                    [rng.choice(entries) for _ in range(nvars)]
                    for _ in range(nvars)
                ]
                f = rand_poly(rng, ring, max_deg=4, max_terms=5)
                try:
                    got = f.substitute_linear(matrix)
                except ValueError:
                    continue  # singular
                images = [
                    sum((c * g for c, g in zip(row, gens)), ring.zero())
                    for row in matrix
                ]
                want = ring.zero()
                for m, c in f.terms.items():
                    term = ring.constant(c)
                    for image, e in zip(images, m):
                        for _ in range(e):
                            term = term * image
                    want = want + term
                assert got == want
                checked += 1

    def test_restrict_hyperplane(self):
        f = X + X**2 * Y
        g = f.restrict_hyperplane(0)
        assert g.ring.nvars == 1
        assert g.is_zero()
        h = (X + Y * Y).restrict_hyperplane(1)
        assert str(h) == "x"


class TestCoefficients:
    def test_rejects_non_rational_coefficients(self):
        with pytest.raises(TypeError):
            R2.polynomial({(1, 0): 0.5})
        with pytest.raises(TypeError):
            R2.constant("1")
        with pytest.raises(TypeError):
            X.substitute_linear(((1, 0), (0.5, 1)))


def _stores_no_zero(p):
    return all(isinstance(c, Fraction) and c for c in p.terms.values())


class TestNoZeroCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(
        polys(3),
        polys(3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.lists(
            st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]),
            min_size=9,
            max_size=9,
        ),
    )
    def test_operations_store_no_zero(self, p, q, e, i, entries):
        # the constructor keeps its terms as given, so every operation
        # must drop the coefficients that cancel itself
        ring = p.ring
        results = [
            p + q, p - q, p - p, q - p, p * q, -p, p**e, 2 * p, p * 0,
            p + Fraction(1, 2), 1 - p,
            p.partial_derivative(i),
            p.restrict_hyperplane(i),
            lift_polynomial(p, extend_ring(ring, "t", front=True)),
        ]
        matrix = [entries[3 * k:3 * k + 3] for k in range(3)]
        try:
            results.append(p.substitute_linear(matrix))
        except ValueError:
            pass  # singular
        for r in results:
            assert _stores_no_zero(r)

    def test_constructor_rejects_a_zero_coefficient(self):
        # kept, a zero coefficient made is_zero, equality and degrees wrong:
        # this polynomial read as nonzero, of degree 1, printed as 0*x
        with pytest.raises(ValueError):
            Polynomial(R2, {(1, 0): Fraction(0)})
        with pytest.raises(ValueError):
            Polynomial(R2, {(0, 0): Fraction(3), (0, 1): Fraction(0)})
        assert Polynomial(R2, {}) == R2.zero()


class TestRingExtension:
    def test_fresh_variable_name_avoids_clashes(self):
        assert fresh_variable_name(("x", "y"), "z") == "z"
        assert fresh_variable_name(("z", "y"), "z") == "z2"
        assert fresh_variable_name(("z", "z2"), "z") == "z3"

    def test_extend_and_lift(self):
        bigger = extend_ring(R2, "z", front=False)
        assert bigger.variables == ("x", "y", "z")
        front = extend_ring(R2, "t", front=True)
        assert front.variables == ("t", "x", "y")
        f = X + X**2 * Y
        lifted = lift_polynomial(f, bigger)
        assert lifted.degree_in(2) == 0
        assert str(lifted) == str(f)
