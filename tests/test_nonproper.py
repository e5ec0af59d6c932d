"""Non-properness values of curve-to-line projections."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polarvalues import groebner
from polarvalues import nonproper as nonproper_module
from polarvalues.detector import critical_values
from polarvalues.groebner import Ideal, with_rabinowitsch
from polarvalues.nonproper import (
    EMPTY_CURVE,
    VERTICAL_COMPONENT,
    NotACurveError,
    ValueSet,
    fiber_relation,
    graph_ideal,
    leading_coeff_in,
    nonproperness_values,
    value_line,
)
from polarvalues.polynomials import Polynomial, PolynomialRing
from polarvalues.univar import UnivariatePolynomial

import oracles

R2 = PolynomialRing(("x", "y"))
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"))
X3, Y3, U3 = (R3.variable(v) for v in ("x", "y", "u"))


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

    def test_rational_roots_are_not_approximated(self):
        # at a loose tolerance the roots of z^2 - 4 came back as
        # -1.98-0.09i and 2.18+0.41i, marked converged: a root known
        # exactly is listed as its own float
        vs = ValueSet.from_rho(U(-4, 0, 1), tolerance=0.5)
        assert vs.approx_roots == (-2, 2)
        assert vs.approx_converged
        # (z - 1)(z^2 - 2): only the irrational factor is approximated,
        # and the roots stay sorted by (real, imaginary)
        vs = ValueSet.from_rho(U(2, -2, -1, 1))
        assert vs.approx_roots[1] == 1
        assert [round(z.real, 9) for z in vs.approx_roots] == [
            round(-math.sqrt(2), 9), 1, round(math.sqrt(2), 9)
        ]

    def test_rational_root_beyond_float_range(self):
        # z - 10^400 is listed exactly, and approximated as an infinity
        # that counts as unconverged, as approx_roots_with_status does
        vs = ValueSet.from_rho(U(-(10**400), 1))
        assert vs.exact_rational_roots == (10**400,)
        assert vs.approx_roots == (complex(math.inf, 0.0),)
        assert not vs.approx_converged


class TestGraphIdeal:
    def test_appends_value_variable_last(self):
        g = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        assert g.ring.variables == ("x", "y", "z")
        assert g.z_index == 2
        assert len(g.ideal.generators) == 2

    def test_name_clash_gets_fresh_name(self):
        ring = PolynomialRing(("x", "z"))
        xx = ring.variable("x")
        g = graph_ideal(Ideal(ring, [xx]), xx)
        assert g.ring.nvars == 3
        assert g.ring.variables[2] not in ("x", "z")

    def test_rejects_foreign_polynomial(self):
        other = PolynomialRing(("a", "b"))
        with pytest.raises(ValueError):
            graph_ideal(Ideal(R2, [X]), other.variable("a"))

    def test_primitive_map_without_constant_is_unchanged(self):
        # f - z itself: the value coordinate is f's own
        f = 2 * X + 3 * X**2 * Y
        base = Ideal(R2, [X * Y - 1])
        g = graph_ideal(base, f)
        z = g.ring.variable("z")
        lift = lambda p: g.ring.polynomial(
            {m + (0,): c for m, c in p.terms.items()}
        )
        assert g.ideal.generators == (lift(X * Y - 1), lift(f) - z)
        assert (g.shift, g.scale) == (0, 1)

    def test_constant_and_content_are_taken_out(self):
        # z = 3*(f + 7): primitive integer coefficients, no constant term
        f = Fraction(1, 3) * X**2 * Y + Fraction(2, 3) * X * Y - 7
        g = graph_ideal(Ideal(R2, [X * Y - 1]), f)
        x, y, z = g.ring.gens()
        assert g.ideal.generators[-1] == x**2 * y + 2 * x * y - z
        assert (g.shift, g.scale) == (-7, 3)
        # a negative content keeps the sign: the scale is positive
        g = graph_ideal(Ideal(R2, [X * Y - 1]), -2 * X + 4 * Y + 1)
        assert g.ideal.generators[-1] == -x + 2 * y - z
        assert (g.shift, g.scale) == (1, Fraction(1, 2))

    def test_to_f_maps_the_coordinate_back(self):
        # z = (f - 5)/3: the graph's root z = 4 is the value f = 17
        g = graph_ideal(Ideal(R2, [X * Y - 1]), 3 * X + 5)
        assert (g.shift, g.scale) == (5, Fraction(1, 3))
        assert g.to_f(U(-4, 1)).canonical() == U(-17, 1)
        assert g.to_f(U(1)) == U(1)

    def test_relations_speak_the_graph_coordinate(self):
        # f = 3x + 5 gives z = x = (f - 5)/3: the fiber relation in (y, z)
        # on xy = 1 is yz - 1, not y(f - 5) - 3
        g = graph_ideal(Ideal(R2, [X * Y - 1]), 3 * X + 5)
        rel = fiber_relation(g, 1)
        y, z = rel.ring.gens()
        assert rel == y * z - 1
        # on the line x = 2 the value line is z - 2; f's value there is 11
        g = graph_ideal(Ideal(R2, [X - 2]), 3 * X + 5)
        assert value_line(g).canonical() == U(-2, 1)
        assert g.to_f(value_line(g)).canonical() == U(-11, 1)


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
        vs = nonproperness_values(graph_ideal(Ideal(R2, [X * Y - 1]), X))
        assert vs.rho == U(0, 1)
        assert vs.exact_rational_roots == (Fraction(0),)
        assert not vs.flags

    def test_coordinate_on_its_own_axis_is_proper(self):
        vs = nonproperness_values(graph_ideal(Ideal(R2, [Y]), X))
        assert vs.is_empty()

    def test_shifted_hyperbola(self):
        # x(y-3) = 1: escape along y -> infinity forces x -> 0, f = x + 7
        curve = Ideal(R2, [X * (Y - 3) - 1])
        vs = nonproperness_values(graph_ideal(curve, X + 7))
        assert vs.exact_rational_roots == (Fraction(7),)

    def test_constant_map_flags_vertical_component(self):
        vs = nonproperness_values(graph_ideal(Ideal(R2, [X * Y - 1]), X * Y))
        assert VERTICAL_COMPONENT in vs.flags
        assert vs.exact_rational_roots == (Fraction(1),)

    def test_empty_curve(self):
        vs = nonproperness_values(graph_ideal(Ideal(R2, [X, X - R2.one()]), X))
        assert vs.is_empty()
        assert EMPTY_CURVE in vs.flags

    def test_surface_rejected(self):
        with pytest.raises(NotACurveError):
            nonproperness_values(graph_ideal(Ideal(R2, []), X))

    def test_finite_point_set_reports_values_with_flag(self):
        # a point is a component on which f is constant; the conservative
        # convention keeps its value and raises the vertical flag
        curve = Ideal(R2, [X - 1, Y - 2])
        vs = nonproperness_values(graph_ideal(curve, X + Y))
        assert vs.exact_rational_roots == (Fraction(3),)
        assert VERTICAL_COMPONENT in vs.flags

    def test_escape_vars_subset(self):
        # only watch the y direction: x cannot escape along it without
        # the relation's leading coefficient recording z = 0
        graph = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        vs = nonproperness_values(graph, escape_vars=[1])
        assert vs.exact_rational_roots == (Fraction(0),)

    @pytest.mark.parametrize("bad", [2, -1, 3])
    def test_bad_escape_var_is_refused_before_any_chain(
        self, monkeypatch, bad
    ):
        # z (index 2), a negative index and one past the ring name no
        # escape direction: refused before the certificate's chain runs
        def no_chain(*args, **kwargs):
            raise AssertionError("a modular chain ran")

        monkeypatch.setattr(groebner, "_modular_chain", no_chain)
        graph = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        with pytest.raises(ValueError, match="non-value variable"):
            nonproperness_values(graph, escape_vars=[0, bad])

    def test_repeated_escape_var_is_read_once(self, monkeypatch):
        calls = Counter()
        relation = nonproper_module.fiber_relation

        def counting(graph, var_index, seed_elements=None):
            calls[var_index] += 1
            return relation(graph, var_index, seed_elements)

        monkeypatch.setattr(nonproper_module, "fiber_relation", counting)
        graph = graph_ideal(Ideal(R2, [X * Y - 1]), X)
        vs = nonproperness_values(graph, escape_vars=[1, 0, 1])
        assert calls == {0: 1, 1: 1}
        assert vs == nonproperness_values(graph)

    def test_parabola_projection_proper(self):
        # y = x^2 projects properly under f = y
        vs = nonproperness_values(graph_ideal(Ideal(R2, [Y - X**2]), Y))
        assert vs.is_empty()

    def test_parabola_other_direction(self):
        # f = x on y = x^2: both coordinates escape together, x is
        # unbounded on every unbounded branch, but fibers stay finite and
        # bounded-away values stay proper: no finite non-properness values
        vs = nonproperness_values(graph_ideal(Ideal(R2, [Y - X**2]), X))
        assert vs.is_empty()


def _in_z(p):
    """A polynomial of the (x_i, z) ring that involves z only, as a
    univariate polynomial."""
    coeffs = {m[1]: c for m, c in p.terms.items()}
    return UnivariatePolynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def _substitute(rho, scale, shift):
    """rho(scale*(z - shift)), expanded by the binomial theorem: the
    references' own map from a graph's value coordinate back to f's
    values, not `GraphIdeal.to_f`."""
    out = [Fraction(0)] * len(rho.coefficients)
    for k, a in enumerate(rho.coefficients):
        for j in range(k + 1):
            out[j] += a * scale**k * math.comb(k, j) * (-shift) ** (k - j)
    return UnivariatePolynomial(out)


def unshared_values(curve, f, escape_vars=None):
    """Reference: one full elimination chain per escape variable from the
    graph ideal itself, and one more for the value line."""
    graph = graph_ideal(curve, f)
    if escape_vars is None:
        escape_vars = range(curve.ring.nvars)
    flags, rho = set(), U(1)
    for i in escape_vars:
        rel = fiber_relation(graph, i)
        if rel.degree_in(0):
            rho = rho * _in_z(leading_coeff_in(rel, 0))
        else:
            flags.add(VERTICAL_COMPONENT)
            rho = rho * _in_z(rel)
    line = value_line(graph)
    if line is not None and line.degree() >= 1:
        flags.add(VERTICAL_COMPONENT)
        rho = rho * line
    return ValueSet.from_rho(_substitute(rho, graph.scale, graph.shift), flags)


@st.composite
def plane_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        exps = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[exps] = Fraction(draw(st.integers(-3, 3)))
    return Polynomial(R2, {m: c for m, c in terms.items() if c})


class TestSharedStages:
    """The value line read off the fiber relations, and stages shared
    between the chains, give the values of unshared chains."""

    CASES = {
        "hyperbola": (Ideal(R2, [X * Y - 1]), X + Y),
        "two_points": (Ideal(R2, [X**2 - 1, Y - X]), Y),
        "constant_map": (Ideal(R2, [X * Y - 1]), X * Y),
        # the y-axis maps properly, the line y = 1 is vertical
        "vertical_and_not": (Ideal(R2, [X * (Y - 1)]), Y),
        "space_curve": (Ideal(R3, [X3 * Y3 - 1, U3 - X3**2]), X3 + U3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_unshared_chains(self, name):
        curve, f = self.CASES[name]
        vs = nonproperness_values(graph_ideal(curve, f))
        assert vs == unshared_values(curve, f)

    def test_value_line_read_off(self):
        # f is constant on each of the two points: every fiber relation is
        # free of its x_i and generates the value line z^2 - 1
        curve = Ideal(R2, [X**2 - 1, Y - X])
        vs = nonproperness_values(graph_ideal(curve, Y))
        assert vs.rho == U(-1, 0, 1)
        assert vs.flags == frozenset({VERTICAL_COMPONENT})

    def test_vertical_line_beside_a_dominant_one(self):
        # the y-axis maps onto the whole value line, so the value line of
        # the graph is zero; x escapes along y = 1, which the x relation
        # x*(z - 1) records through its leading coefficient
        vs = nonproperness_values(graph_ideal(Ideal(R2, [X * (Y - 1)]), Y))
        assert vs.rho == U(-1, 1)
        assert vs.flags == frozenset()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_escape_vars_keeps_value_line(self, name):
        curve, f = self.CASES[name]
        vs = nonproperness_values(graph_ideal(curve, f), escape_vars=[])
        assert vs == unshared_values(curve, f, escape_vars=[])

    def test_no_escape_vars_values(self):
        # only the value line is left to report
        points = nonproperness_values(
            graph_ideal(Ideal(R2, [X**2 - 1, Y - X]), Y), escape_vars=[]
        )
        assert points.rho == U(-1, 0, 1)
        assert points.flags == frozenset({VERTICAL_COMPONENT})
        assert nonproperness_values(
            graph_ideal(Ideal(R2, [X * (Y - 1)]), Y), escape_vars=[]
        ) == ValueSet.empty()

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(), plane_polys(), st.sampled_from([None, [0], [1]]))
    def test_random_plane_curves(self, g, f, escape_vars):
        assume(not g.is_constant())
        curve = Ideal(R2, [g])
        vs = nonproperness_values(graph_ideal(curve, f), escape_vars)
        assert vs == unshared_values(curve, f, escape_vars)


class TestValueCoordinate:
    """Values move with the map, an oracle independent of the engine: for
    rationals a != 0 and b, the values of a*f + b are the images of those
    of f under z -> a*z + b.  The graph ideals of f and a*f + b share
    their normalized value coordinate, so each side maps its values back
    by its own shift and scale."""

    SCALES = st.fractions(-5, 5, max_denominator=7).filter(bool)
    SHIFTS = st.fractions(-10**12, 10**12, max_denominator=1000)

    @staticmethod
    def assert_image(moved, values, a, b):
        # the image of rho's roots under z -> a*z + b is rho((z - b)/a)
        assert moved.rho == _substitute(values.rho, 1 / a, b).canonical()
        assert moved.exact_rational_roots == tuple(
            sorted(a * r + b for r in values.exact_rational_roots)
        )
        assert moved.flags == values.flags

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(), plane_polys(), SCALES, SHIFTS)
    def test_nonproperness_values_move_with_the_map(self, g, f, a, b):
        assume(not g.is_constant())
        curve = Ideal(R2, [g])
        self.assert_image(
            nonproperness_values(graph_ideal(curve, a * f + b)),
            nonproperness_values(graph_ideal(curve, f)),
            a, b,
        )

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(), SCALES, SHIFTS)
    def test_critical_values_move_with_the_map(self, f, a, b):
        assume(not f.is_constant())
        self.assert_image(critical_values(a * f + b), critical_values(f), a, b)


def exact_relations(curve, f):
    """Reference: the fiber relations of an exact integer chain.

    `oracles.reference_buchberger` runs with `_IntegerArith`, stage by
    stage and with no modular step: the graded basis of the graph ideal,
    then one elimination stage per dropped variable in ascending order,
    then the lex basis of the (x_i, z) intersection, whose element of
    least x_i degree is the relation.  Its stages keep the other
    variables in ring order, not in the engine's reverse ring order
    (`groebner._stage_codec`), so it shares no order with the engine;
    the lex basis makes the relations comparable.  Returns {i: relation
    in the pair ring} for every variable of the curve, None where the
    intersection is zero.
    """
    graph = graph_ideal(curve, f)
    ring = graph.ring
    n = ring.nvars

    def exact_basis(polys, codec, target):
        gens = [groebner._to_engine(p, codec) for p in polys]
        elems = oracles.reference_buchberger(
            gens, groebner._IntegerArith(codec)
        )
        return [groebner._from_engine(t, codec, target) for t in elems]

    seed = exact_basis(graph.ideal.generators, groebner._Codec((range(n),)), ring)
    relations = {}
    for i in range(curve.ring.nvars):
        current = seed
        for j in range(n - 1):
            if j == i or not any(j in p.support_variables() for p in current):
                continue
            codec = groebner._Codec(((j,), [k for k in range(n) if k != j]))
            current = [
                p for p in exact_basis(current, codec, ring)
                if j not in p.support_variables()
            ]
        if not current:
            relations[i] = None
            continue
        pair_ring = PolynomialRing((ring.variables[i], ring.variables[-1]))
        pairs = [
            Polynomial(
                pair_ring, {(m[i], m[-1]): c for m, c in p.terms.items()}
            )
            for p in current
        ]
        lex = exact_basis(pairs, groebner._Codec(((0,), (1,))), pair_ring)
        relations[i] = min(lex, key=lambda p: p.degree_in(0))
    return relations


def values_of(relations, graph):
    """rho and flags read off the fiber relations of `graph` as
    nonproperness_values does, in the values of f."""
    flags, rho = set(), U(1)
    for rel in relations.values():
        if rel.degree_in(0):
            rho = rho * _in_z(leading_coeff_in(rel, 0))
        else:
            flags.add(VERTICAL_COMPONENT)
            rho = rho * _in_z(rel)
    return ValueSet.from_rho(_substitute(rho, graph.scale, graph.shift), flags)


QUADRATIC_MONOMIALS = [
    e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2
]


@st.composite
def space_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        exps = draw(st.sampled_from(QUADRATIC_MONOMIALS))
        terms[exps] = Fraction(draw(st.integers(-9, 9)))
    return Polynomial(R3, {m: c for m, c in terms.items() if c})


@st.composite
def curves(draw):
    """A plane curve g = 0 or a space curve g1 = g2 = 0, with a map."""
    if draw(st.booleans()):
        gens = [draw(plane_polys())]
        f = draw(plane_polys())
    else:
        gens = [draw(space_polys()), draw(space_polys())]
        f = draw(space_polys())
    return Ideal(gens[0].ring, gens), f


class TestExactReference:
    """The modular chain gives the fiber relations and values of an exact
    integer chain."""

    @settings(max_examples=30, deadline=None)
    @given(curves())
    def test_matches_exact_chain(self, case):
        curve, f = case
        assume(all(not g.is_constant() for g in curve.generators))
        dim = groebner.affine_dimension(curve)
        assume(0 <= dim <= 1)
        expected = exact_relations(curve, f)
        if None in expected.values():
            with pytest.raises(NotACurveError):
                nonproperness_values(graph_ideal(curve, f))
            return
        seen = {}
        inner = nonproper_module.fiber_relation

        def recording(graph, i, seed_elements=None):
            seen[i] = inner(graph, i, seed_elements=seed_elements)
            return seen[i]

        graph = graph_ideal(curve, f)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonproper_module, "fiber_relation", recording)
            vs = nonproperness_values(graph)
        assert seen == expected
        assert vs == values_of(expected, graph)


def test_each_output_is_proved_once(monkeypatch):
    # every output of the chain is proved a member of the graph ideal by
    # `covers`, and the fiber relations read off them take no second
    # proof: `member` runs exactly on the elements that `covers` checks,
    # once each, and never on a relation
    from polarvalues.detector import (
        sample_super_polar_coefficients,
        super_polar_ideal,
    )

    f = X3 + X3**2 * Y3
    coeffs = sample_super_polar_coefficients(random.Random(3), 3, 5, 3)
    graph = graph_ideal(super_polar_ideal(f, coeffs), f)
    covered = []
    members = []
    covers = groebner._Certificate.covers
    member = groebner._Certificate.member

    def recording_covers(self, elems):
        mask = self.codec.mask
        covered.extend(
            {self.codec.key_from_plain(m & mask): c for m, c in t.items()}
            for t in elems
        )
        return covers(self, elems)

    def recording_member(self, terms):
        members.append(terms)
        return member(self, terms)

    monkeypatch.setattr(groebner._Certificate, "covers", recording_covers)
    monkeypatch.setattr(groebner._Certificate, "member", recording_member)
    nonproperness_values(graph)
    assert len(covered) == 3
    assert members == covered


class TestLiftCost:
    def test_only_outputs_are_lifted(
        self, monkeypatch, watch_node_runs, hold_reconstruction
    ):
        """One nonproperness_values call on a super-polar curve at bound 5
        reconstructs the coefficients of its outputs only: the (x_i, z)
        intersections, the lex relations read off them and the
        certificate's graded basis, which is the curve's: the graph
        ideal's certificate is the curve's plus the value generator, so
        no graded basis of the homogenized graph is lifted.  Each
        intersection here is one polynomial, which is its own lex relation
        and needs no lift.  Every stage of the chain runs at most once per
        prime, and the seed, the certificate's basis, never runs.  The
        first prime proves every output, so the lifts are held back to one
        more prime.  The root stage of x, stopped by the race at the first
        prime, is no stage of the chain."""
        from polarvalues.detector import (
            sample_super_polar_coefficients,
            super_polar_ideal,
        )

        f = X3 + X3**2 * Y3
        coeffs = sample_super_polar_coefficients(random.Random(3), 3, 5, 3)
        curve = super_polar_ideal(f, coeffs)
        assert groebner.affine_dimension(curve) == 1
        graph = graph_ideal(curve, f)
        z = graph.z_index
        outputs = [groebner.eliminate(graph.ideal, {i, z}) for i in range(3)]
        assert [len(out) for out in outputs] == [1, 1, 1]
        relations = [
            fiber_relation(graph, i)
            for i, out in enumerate(outputs) if len(out) > 1
        ]
        h_ring = PolynomialRing(curve.ring.variables + ("h",))
        homogenized = [
            Polynomial(
                h_ring,
                {m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()},
            )
            for g in curve.generators
        ]
        certificate = groebner.graded_basis(Ideal(h_ring, homogenized))
        expected = sum(
            len(p.terms) for p in certificate + relations + sum(outputs, [])
        )

        states = []
        runs = Counter()
        init = groebner._CrtState.__init__

        def registering(self):
            init(self)
            states.append(self)

        def count(gens, engine):
            codec = engine.codec
            if codec.nvars == graph.ring.nvars:
                # a stage is its codec and the variables left in its input
                left = frozenset(
                    i for t in gens for m in t
                    for i, e in enumerate(codec.unpack(m)) if e
                )
                runs[(codec.blocks, left, engine.p)] += 1

        monkeypatch.setattr(groebner._CrtState, "__init__", registering)
        hold_reconstruction(1)
        fresh = graph_ideal(curve, f)
        # the certificate's chain runs on the homogenized curve, in as many
        # variables as the graph: build it first, so that only the graph
        # chain's stages are counted
        groebner._certificate(fresh.ideal).basis()
        watch_node_runs(count)
        nonproperness_values(fresh)
        lifted = sum(len(e) for s in states for e in s.elements or ())
        assert lifted == expected == 164
        assert max(runs.values()) == 1
        # the five stages of the tree, each at both primes
        primes = Counter((blocks, left) for blocks, left, _ in runs)
        assert len(primes) == 5
        assert set(primes.values()) == {2}


@pytest.fixture
def stage_count(monkeypatch):
    """Counts the one-variable elimination stages of the modular chains:
    each chain plans its tree of stages once and runs each at most once
    per prime.  Single-basis chains (the lex pair basis of a fiber
    relation, the graded basis of a certificate) have none."""
    count = [0]
    inner = groebner._plan

    def counting(drops, race):
        tree = inner(drops, race)
        count[0] += len(tree)
        return tree

    monkeypatch.setattr(groebner, "_plan", counting)
    return count


class TestStageCount:
    def test_three_variable_curve(self, stage_count):
        # chains keep {x}, {y}, {u}: u's stage does the least work at the
        # first prime and x's the least after it, so the stages drop {u},
        # {u, x}, {u, y}, {x} and {x, y}; the value line needs none of its
        # own
        curve = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2])
        vs = nonproperness_values(graph_ideal(curve, X3 + U3))
        assert vs.rho == U(0, 1)
        assert stage_count[0] == 5

    def test_localized_curve_drops_t_once(self, stage_count):
        # in (t, x, y) the chains for x and y share the stage dropping t
        curve = with_rabinowitsch(Ideal(R2, [X * Y - 1]), X)
        f = curve.ring.variable("x")
        vs = nonproperness_values(graph_ideal(curve, f), escape_vars=[1, 2])
        assert vs.rho == U(0, 1)
        assert stage_count[0] == 3

    @pytest.mark.parametrize("localized", [False, True])
    def test_single_fewest_stage_tree_is_not_priced(
        self, monkeypatch, watch_node_runs, localized
    ):
        # (x, y, z) drops {y} and {x}; (t, x, y, z) drops {t, y} and
        # {t, x}, t first.  Either tree is the only one with the fewest
        # stages, so the first prime races no root stage: it runs one
        # basis per stage, and proves every output.  The seed, the graph's
        # certificate basis (its curve's plus the value generator), never
        # runs; the certificate's own chain runs on the homogenized curve,
        # in as many variables as the graph, so it is built before the
        # runs are counted
        curve = Ideal(R2, [X * Y - 1])
        escape = [0, 1]
        if localized:
            curve = with_rabinowitsch(curve, X)
            escape = [1, 2]
        f = curve.ring.variable("x")
        nvars = curve.ring.nvars + 1
        asked = []
        calls = Counter()
        plan = groebner._plan

        def asking(drops, race):
            def raced(candidates):
                asked.append(candidates)
                return race(candidates)

            return plan(drops, raced)

        def counting(gens, engine):
            if engine.codec.nvars == nvars:
                calls[engine.p] += 1

        graph = graph_ideal(curve, f)
        groebner._certificate(graph.ideal).basis()
        monkeypatch.setattr(groebner, "_plan", asking)
        watch_node_runs(counting)
        vs = nonproperness_values(graph, escape_vars=escape)
        assert vs.rho == U(0, 1)
        assert asked == []
        assert calls == {groebner._agenda_prime(0): 3 if localized else 2}
