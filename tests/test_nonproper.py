"""Non-properness values of curve-to-line projections."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polarvalues import groebner
from polarvalues import nonproper as nonproper_module
from polarvalues.fields import QQ
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

R2 = PolynomialRing(("x", "y"), QQ)
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"), QQ)
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


def _in_z(p):
    """A polynomial of the (x_i, z) ring that involves z only, as a
    univariate polynomial."""
    coeffs = {m[1]: c for m, c in p.terms.items()}
    return UnivariatePolynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


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
    return ValueSet.from_rho(rho, flags)


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
        assert nonproperness_values(curve, f) == unshared_values(curve, f)

    def test_value_line_read_off(self):
        # f is constant on each of the two points: every fiber relation is
        # free of its x_i and generates the value line z^2 - 1
        vs = nonproperness_values(Ideal(R2, [X**2 - 1, Y - X]), Y)
        assert vs.rho == U(-1, 0, 1)
        assert vs.flags == frozenset({VERTICAL_COMPONENT})

    def test_vertical_line_beside_a_dominant_one(self):
        # the y-axis maps onto the whole value line, so the value line of
        # the graph is zero; x escapes along y = 1, which the x relation
        # x*(z - 1) records through its leading coefficient
        vs = nonproperness_values(Ideal(R2, [X * (Y - 1)]), Y)
        assert vs.rho == U(-1, 1)
        assert vs.flags == frozenset()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_escape_vars_keeps_value_line(self, name):
        curve, f = self.CASES[name]
        vs = nonproperness_values(curve, f, escape_vars=[])
        assert vs == unshared_values(curve, f, escape_vars=[])

    def test_no_escape_vars_values(self):
        # only the value line is left to report
        points = nonproperness_values(
            Ideal(R2, [X**2 - 1, Y - X]), Y, escape_vars=[]
        )
        assert points.rho == U(-1, 0, 1)
        assert points.flags == frozenset({VERTICAL_COMPONENT})
        assert nonproperness_values(
            Ideal(R2, [X * (Y - 1)]), Y, escape_vars=[]
        ) == ValueSet.empty()

    @settings(max_examples=25, deadline=None)
    @given(plane_polys(), plane_polys(), st.sampled_from([None, [0], [1]]))
    def test_random_plane_curves(self, g, f, escape_vars):
        assume(not g.is_constant())
        curve = Ideal(R2, [g])
        assert nonproperness_values(curve, f, escape_vars) == unshared_values(
            curve, f, escape_vars
        )


def exact_relations(curve, f):
    """Reference: the fiber relations of an exact integer chain.

    `_core_buchberger` runs with `_IntegerArith`, stage by stage and with
    no modular step: the graded basis of the graph ideal, then one
    elimination stage per dropped variable in ascending order, then the
    lex basis of the (x_i, z) intersection, whose element of least x_i
    degree is the relation.  Returns {i: relation in the pair ring} for
    every variable of the curve, None where the intersection is zero.
    """
    graph = graph_ideal(curve, f)
    ring = graph.ring
    n = ring.nvars

    def exact_basis(polys, codec, target):
        gens = [groebner._to_engine(p, codec) for p in polys]
        try:
            elems = groebner._core_buchberger(gens, groebner._IntegerArith(codec))
        except groebner._UnitIdeal:
            return [target.one()]
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
        pair_ring = PolynomialRing((ring.variables[i], ring.variables[-1]), QQ)
        pairs = [
            Polynomial(
                pair_ring, {(m[i], m[-1]): c for m, c in p.terms.items()}
            )
            for p in current
        ]
        lex = exact_basis(pairs, groebner._Codec(((0,), (1,))), pair_ring)
        relations[i] = min(lex, key=lambda p: p.degree_in(0))
    return relations


def values_of(relations):
    """rho and flags read off fiber relations as nonproperness_values
    does."""
    flags, rho = set(), U(1)
    for rel in relations.values():
        if rel.degree_in(0):
            rho = rho * _in_z(leading_coeff_in(rel, 0))
        else:
            flags.add(VERTICAL_COMPONENT)
            rho = rho * _in_z(rel)
    return ValueSet.from_rho(rho, flags)


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
                nonproperness_values(curve, f, dim=dim)
            return
        seen = {}
        inner = nonproper_module.fiber_relation

        def recording(graph, i, seed_elements=None):
            seen[i] = inner(graph, i, seed_elements=seed_elements)
            return seen[i]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nonproper_module, "fiber_relation", recording)
            vs = nonproperness_values(curve, f, dim=dim)
        assert seen == expected
        assert vs == values_of(expected)


def test_relation_outside_the_graph_ideal_warns(monkeypatch):
    # a fiber relation that fails its membership certificate is named in
    # a warning, not dropped
    inner = nonproper_module.fiber_relation

    def perturbed(graph, i, seed_elements=None):
        rel = inner(graph, i, seed_elements=seed_elements)
        return rel + rel.ring.one()

    monkeypatch.setattr(nonproper_module, "fiber_relation", perturbed)
    with pytest.warns(
        groebner.UncertifiedResult,
        match=r"the fiber relation in \(y, z\) is not in the graph ideal",
    ):
        vs = nonproperness_values(Ideal(R2, [X * Y - 1]), X, escape_vars=[1])
    assert vs.exact_rational_roots == (Fraction(0),)


class TestLiftCost:
    def test_only_outputs_are_lifted(self, monkeypatch):
        """One nonproperness_values call on a super-polar curve at bound 5
        reconstructs the coefficients of its outputs only: the (x_i, z)
        intersections, the lex relations read off them and the
        certificate's graded basis.  Every stage of the chain runs at most
        once per prime."""
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
        relations = [fiber_relation(graph, i) for i in range(3)]
        h_ring = PolynomialRing(graph.ring.variables + ("h",), QQ)
        homogenized = [
            Polynomial(
                h_ring,
                {m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()},
            )
            for g in graph.ideal.generators
        ]
        certificate = groebner.graded_basis(Ideal(h_ring, homogenized))
        expected = sum(
            len(p.terms) for p in certificate + relations + sum(outputs, [])
        )

        states = []
        runs = Counter()
        init = groebner._CrtState.__init__
        core = groebner._core_buchberger

        def registering(self):
            init(self)
            states.append(self)

        def counting(gens, engine):
            codec = engine.codec
            if codec.nvars == graph.ring.nvars:
                # a stage is its codec and the variables left in its input
                left = frozenset(
                    i for t in gens for m in t
                    for i, e in enumerate(codec.unpack(m)) if e
                )
                runs[(codec.blocks, left, engine.p)] += 1
            return core(gens, engine)

        monkeypatch.setattr(groebner._CrtState, "__init__", registering)
        monkeypatch.setattr(groebner, "_core_buchberger", counting)
        nonproperness_values(curve, f, dim=1)
        lifted = sum(len(e) for s in states for e in s.elements or ())
        assert lifted == expected
        assert max(runs.values()) == 1
        # the graded seed and five stages, each at every prime it ran at
        assert len({(blocks, left) for blocks, left, _ in runs}) == 6


@pytest.fixture
def stage_count(monkeypatch):
    """Counts the one-variable elimination stages of the modular chains:
    each chain lists its stages once and runs each at most once per prime.
    Single-basis chains (the lex pair basis of a fiber relation, the graded
    basis of a certificate) have none."""
    count = [0]
    inner = groebner._modular_chain

    def counting(gens_int, seed_codec, names, stages=(), outputs=(0,)):
        count[0] += len(stages)
        return inner(gens_int, seed_codec, names, stages, outputs)

    monkeypatch.setattr(groebner, "_modular_chain", counting)
    return count


class TestStageCount:
    def test_three_variable_curve(self, stage_count):
        # chains keep {x}, {y}, {u}: the stages dropping {y}, {y, u}, {x},
        # {x, u} and {x, y}; the value line needs none of its own
        curve = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2])
        vs = nonproperness_values(curve, X3 + U3, dim=1)
        assert vs.rho == U(0, 1)
        assert stage_count[0] == 5

    def test_localized_curve_drops_t_once(self, stage_count):
        # in (t, x, y) the chains for x and y share the stage dropping t
        curve = with_rabinowitsch(Ideal(R2, [X * Y - 1]), X)
        f = curve.ring.variable("x")
        vs = nonproperness_values(curve, f, escape_vars=[1, 2], dim=1)
        assert vs.rho == U(0, 1)
        assert stage_count[0] == 3
