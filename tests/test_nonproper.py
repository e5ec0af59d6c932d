"""Non-properness values of curve-to-line projections."""

from fractions import Fraction

import pytest

from polarvalues.fields import QQ
from polarvalues.groebner import Ideal
from polarvalues.nonproper import (
    EMPTY_CURVE,
    VERTICAL_COMPONENT,
    NotACurveError,
    ValueSet,
    fiber_relation,
    graph_ideal,
    leading_coeff_in,
    nonproperness_values,
)
from polarvalues.polynomials import PolynomialRing
from polarvalues.univar import UnivariatePolynomial

R2 = PolynomialRing(("x", "y"), QQ)
X, Y = R2.variable("x"), R2.variable("y")


def U(*coeffs):
    return UnivariatePolynomial([Fraction(c) for c in coeffs])


class TestValueSet:
    def test_from_rho_canonicalizes(self):
        vs = ValueSet.from_rho(U(0, 0, 2))  # 2 z^2 -> z
        assert vs.rho == U(0, 1)
        assert vs.exact_rational_roots == (Fraction(0),)
        assert vs.root_count() == 1

    def test_constant_rho_is_empty(self):
        vs = ValueSet.from_rho(U(5))
        assert vs.is_empty()
        assert vs.root_count() == 0
        assert vs.approx_roots == ()

    def test_zero_rho_rejected(self):
        with pytest.raises(ValueError):
            ValueSet.from_rho(UnivariatePolynomial.zero())

    def test_flags_preserved(self):
        vs = ValueSet.empty(flags={EMPTY_CURVE})
        assert vs.flags == frozenset({EMPTY_CURVE})

    def test_irrational_roots_still_counted(self):
        vs = ValueSet.from_rho(U(-2, 0, 1))  # z^2 - 2
        assert vs.exact_rational_roots == ()
        assert len(vs.approx_roots) == 2
        assert vs.root_count() == 2


class TestGraphIdeal:
    def test_appends_value_variable_last(self):
        g = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        assert g.ring.variables == ("x", "y", "z")
        assert g.z_index == 2
        assert len(g.ideal.generators) == 2

    def test_name_clash_gets_fresh_name(self):
        ring = PolynomialRing(("x", "z"), QQ)
        xx = ring.variable("x")
        g = graph_ideal(Ideal(ring, [xx]), xx)
        assert g.ring.nvars == 3
        assert g.ring.variables[2] not in ("x", "z")

    def test_rejects_foreign_polynomial(self):
        other = PolynomialRing(("a", "b"), QQ)
        with pytest.raises(ValueError):
            graph_ideal(Ideal(R2, [X]), other.variable("a"))


class TestFiberRelation:
    def test_hyperbola_relation(self):
        g = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        rel = fiber_relation(g, 0)  # relation between x and z on x = z
        assert rel.ring.variables == ("x", "z")
        # x - z vanishes on the graph
        assert str(rel) == "x - z"

    def test_escape_direction_y(self):
        g = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        rel = fiber_relation(g, 1)  # y z = 1 on the graph
        assert str(rel) == "y*z - 1"

    def test_rejects_value_variable(self):
        g = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        with pytest.raises(ValueError):
            fiber_relation(g, g.z_index)


class TestLeadingCoeff:
    def test_extracts_top_coefficient(self):
        p = (Y**2 - 3) * X**2 + X + 1
        lc = leading_coeff_in(p, 0)
        assert lc == Y**2 - 3

    def test_no_occurrence_returns_input(self):
        p = Y**2 + 1
        assert leading_coeff_in(p, 0) == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_coeff_in(R2.zero(), 0)


class TestNonProperness:
    def test_coordinate_on_hyperbola(self):
        vs = nonproperness_values(Ideal(R2, [X * Y - 1]), X)
        assert vs.rho == U(0, 1)
        assert vs.exact_rational_roots == (Fraction(0),)
        assert not vs.flags

    def test_coordinate_on_its_own_axis_is_proper(self):
        vs = nonproperness_values(Ideal(R2, [Y]), X)
        assert vs.is_empty()

    def test_shifted_hyperbola(self):
        # x(y-3) = 1: escape along y -> infinity forces x -> 0, f = x + 7
        vs = nonproperness_values(Ideal(R2, [X * (Y - 3) - 1]), X + 7)
        assert vs.exact_rational_roots == (Fraction(7),)

    def test_constant_map_flags_vertical_component(self):
        vs = nonproperness_values(Ideal(R2, [X * Y - 1]), X * Y)
        assert VERTICAL_COMPONENT in vs.flags
        assert vs.exact_rational_roots == (Fraction(1),)

    def test_empty_curve(self):
        vs = nonproperness_values(Ideal(R2, [X, X - R2.one()]), X)
        assert vs.is_empty()
        assert EMPTY_CURVE in vs.flags

    def test_surface_rejected(self):
        with pytest.raises(NotACurveError):
            nonproperness_values(Ideal(R2, []), X)

    def test_finite_point_set_reports_values_with_flag(self):
        # a point is a component on which f is constant; the conservative
        # convention keeps its value and raises the vertical flag
        vs = nonproperness_values(Ideal(R2, [X - 1, Y - 2]), X + Y)
        assert vs.exact_rational_roots == (Fraction(3),)
        assert VERTICAL_COMPONENT in vs.flags

    def test_explicit_dim_accepted(self):
        ideal = Ideal(R2, [X * Y - 1])
        vs = nonproperness_values(ideal, X, dim=1)
        assert vs.exact_rational_roots == (Fraction(0),)

    def test_explicit_dim_is_trusted(self):
        # a caller-supplied dimension replaces the count: -1 means empty,
        # above 1 is rejected, without looking at the ideal again
        ideal = Ideal(R2, [X * Y - 1])
        vs = nonproperness_values(ideal, X, dim=-1)
        assert vs.is_empty() and EMPTY_CURVE in vs.flags
        with pytest.raises(NotACurveError):
            nonproperness_values(ideal, X, dim=2)

    def test_escape_vars_subset(self):
        # only watch the y direction: x cannot escape along it without
        # the relation's leading coefficient recording z = 0
        vs = nonproperness_values(Ideal(R2, [X * Y - 1]), X, escape_vars=[1])
        assert vs.exact_rational_roots == (Fraction(0),)

    def test_parabola_projection_proper(self):
        # y = x^2 projects properly under f = y
        vs = nonproperness_values(Ideal(R2, [Y - X**2]), Y)
        assert vs.is_empty()

    def test_parabola_other_direction(self):
        # f = x on y = x^2: both coordinates escape together, x is
        # unbounded on every unbounded branch, but fibers stay finite and
        # bounded-away values stay proper: no finite non-properness values
        vs = nonproperness_values(Ideal(R2, [Y - X**2]), X)
        assert vs.is_empty()
