"""The integer curve layer against the Fraction builders it replaced.

Every curve and graph of a report is built in integers from one primitive
integer form of f, and turned into Fraction polynomials once, on the way
out.  The references in tests/oracles.py build the same objects term by
term in Fraction arithmetic: the public builders must return equal
polynomials, storing only nonzero Fractions, and the samplers must hand
the engine the very ideals that the references build from the same draws.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from polarvalues import detector
from polarvalues.detector import (
    MATRIX_ENTRY_BOUND,
    RETRY_BUDGET,
    DimensionGuardError,
    SuperPolarCoefficients,
    _nonzero_int,
    derive_run_seed,
    gradient_ideal,
    is_singular_locus_finite,
    run_iterated_polar,
    run_super_polar,
    sample_invertible_matrix,
    sample_super_polar_coefficients,
    super_polar_ideal,
)
from polarvalues.groebner import Ideal, affine_dimension, with_rabinowitsch
from polarvalues.nonproper import ValueSet, _graph_ideal, graph_ideal
from polarvalues.polynomials import (
    PolynomialRing,
    _IntegerMap,
    _invertible,
    _pack,
    extend_ring,
    lift_polynomial,
)

import oracles

RINGS = {n: PolynomialRing(tuple("xyuv"[:n])) for n in (1, 2, 3, 4)}
RATIONALS = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 1, 1, 2, 3, 7, 12]),
)


def _stores_no_zero(p):
    return all(isinstance(c, Fraction) and c for c in p.terms.values())


def _check_graph(got, base, f):
    """A graph of f over V(base) must be the reference's graph of f lifted
    into the base's ring, storing only nonzero Fractions."""
    assert (got.ring, got.ideal.generators, got.shift, got.scale) == (
        oracles.graph(base, lift_polynomial(f, base.ring))
    )
    assert got.z_index == got.ring.nvars - 1
    assert all(_stores_no_zero(g) for g in got.ideal.generators)


@st.composite
def bases(draw, ring, localized):
    """An ideal of up to three drawn polynomials in `ring`, or in `ring`
    with a variable t prepended, as `with_rabinowitsch` makes."""
    if localized:
        ring = extend_ring(ring, "t", front=True)
    gens = draw(st.lists(maps(nvars=ring.nvars), max_size=3))
    return Ideal(ring, [ring.polynomial(g.terms) for g in gens])


@st.composite
def maps(draw, nvars=None, max_deg=4):
    """A rational polynomial, often with a constant term and denominators."""
    n = draw(st.sampled_from([2, 3])) if nvars is None else nvars
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(n)
        )
        terms[exps] = draw(RATIONALS)
    if draw(st.booleans()):
        terms[(0,) * n] = draw(RATIONALS)
    return RINGS[n].polynomial(terms)


@st.composite
def matrices(draw, n, rational):
    """An n x n matrix of small entries, zeros and repeats common so that
    singular ones come up; rational entries when asked."""
    entries = st.integers(min_value=-3, max_value=3)
    if rational:
        entries = st.one_of(entries, RATIONALS)
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


class TestBuildersEqualTheReference:
    @settings(max_examples=80, deadline=None)
    @given(maps())
    def test_curve_construction_partials_and_gradient(self, f):
        n = f.ring.nvars
        partials = [oracles.partial(f, j) for j in range(n)]
        for j in range(n):
            got = f.partial_derivative(j)
            assert got == partials[j]
            assert _stores_no_zero(got)
        assert gradient_ideal(f).generators == tuple(p for p in partials if p)

    @settings(max_examples=80, deadline=None)
    @given(maps(), st.integers(min_value=0, max_value=2))
    def test_curve_construction_restriction(self, f, i):
        i %= f.ring.nvars
        got = f.restrict_hyperplane(i)
        assert got == oracles.restrict(f, i)
        assert _stores_no_zero(got)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), maps(), st.booleans())
    def test_curve_construction_substitute_linear(self, data, f, rational):
        matrix = data.draw(matrices(f.ring.nvars, rational))
        try:
            want = oracles.substitute_linear(f, matrix)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                f.substitute_linear(matrix)
            return
        got = f.substitute_linear(matrix)
        assert got == want
        assert _stores_no_zero(got)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_curve_construction_rank_check(self, n, data):
        # Bareiss elimination in integers against Gaussian elimination in
        # Fractions; entries in [-2, 2] make many matrices singular
        entry = st.integers(min_value=-2, max_value=2)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        assert _invertible(rows) == oracles.invertible(rows)

    def test_curve_construction_singular_matrices_raise(self):
        f = RINGS[2].polynomial({(2, 1): 1, (0, 0): 3})
        for matrix in ([[1, 2], [2, 4]], [[Fraction(1, 2), 1], [1, 2]],
                       [[0, 0], [1, 1]]):
            with pytest.raises(ValueError, match="singular"):
                f.substitute_linear(matrix)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), maps())
    def test_curve_construction_super_polar(self, data, f):
        # random coefficient draws, zeros included
        n = f.ring.nvars
        coeff = st.integers(min_value=-9, max_value=9)
        a = tuple(tuple(data.draw(coeff) for _ in range(n))
                  for _ in range(n - 1))
        b = tuple(tuple(tuple(data.draw(coeff) for _ in range(n))
                        for _ in range(n)) for _ in range(n - 1))
        coeffs = SuperPolarCoefficients(seed=0, a=a, b=b, beta=(1,) * n)
        got = super_polar_ideal(f, coeffs)
        want = [g for g in oracles.super_polar(f, a, b) if g]
        assert got.generators == tuple(want)
        assert all(_stores_no_zero(g) for g in got.generators)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(maps(nvars=2), max_size=3), maps(nvars=2))
    def test_curve_construction_localization(self, gens, h):
        ideal = Ideal(RINGS[2], gens)
        if h.is_zero():
            with pytest.raises(ValueError):
                with_rabinowitsch(ideal, h)
            return
        got = with_rabinowitsch(ideal, h)
        want = oracles.rabinowitsch(ideal, h)
        assert (got.ring, got.generators) == (want.ring, want.generators)
        assert all(_stores_no_zero(g) for g in got.generators)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), maps(), st.booleans())
    def test_curve_construction_graph(self, data, f, localized):
        # the builder reads the graph off f's integer form, over a base in
        # f's ring or in that ring with t prepended; graph_ideal is the
        # builder on f's own ring
        base = data.draw(bases(f.ring, localized))
        _check_graph(_graph_ideal(base, _IntegerMap.of(f)), base, f)
        if not localized:
            _check_graph(graph_ideal(base, f), base, f)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), maps(), st.sampled_from([1, 2, 3]), st.booleans(),
           st.booleans())
    def test_curve_construction_graph_of_a_slice(
        self, data, f, den, restricted, localized
    ):
        # a slice's map comes out of substitute or restricted already
        # primitive, so it holds its graph's shift, scale and terms
        rows = data.draw(matrices(f.ring.nvars, rational=False))
        assume(oracles.invertible(rows))
        form = _IntegerMap.of(f).substitute(rows, den)
        want = oracles.substitute_linear(
            f, [[Fraction(a, den) for a in row] for row in rows]
        )
        if restricted:
            form, want = form.restricted(0), oracles.restrict(want, 0)
        assert all(form.terms.values())
        assert math.gcd(*form.terms.values()) in (0, 1)
        base = data.draw(bases(form.ring, localized))
        _check_graph(_graph_ideal(base, form), base, want)

    def test_curve_construction_slices_divide_out_their_content(self):
        # 2y^2 + 4yu, restricted off x + 2y^2 + 4yu, and 4x^2 + 4xy,
        # substituted into x^2 + xy by x -> 2x, have content above 1
        f = RINGS[3].polynomial({(1, 0, 0): 1, (0, 2, 0): 2, (0, 1, 1): 4})
        g = RINGS[2].polynomial({(2, 0): 1, (1, 1): 1})
        for form, want in (
            (_IntegerMap.of(f).restricted(0), oracles.restrict(f, 0)),
            (_IntegerMap.of(g).substitute([[2, 0], [0, 1]]),
             oracles.substitute_linear(g, [[2, 0], [0, 1]])),
        ):
            packed = {_pack(m): int(c) for m, c in want.terms.items()}
            content = math.gcd(*packed.values())
            assert content > 1
            assert form.terms == {k: c // content for k, c in packed.items()}
            assert form.scale == Fraction(1, content)
            for localized in (False, True):
                base = Ideal(form.ring, [want])
                if localized:
                    base = with_rabinowitsch(base, want)
                _check_graph(_graph_ideal(base, form), base, want)

    @settings(max_examples=30, deadline=None)
    @given(maps(max_deg=3))
    def test_curve_construction_singular_locus_from_the_graph(self, f):
        # the graph's certificate is the gradient ideal's basis plus the
        # value generator, so its dimension is the gradient ideal's
        assert is_singular_locus_finite(f) == (
            affine_dimension(gradient_ideal(f)) <= 0
        )


def _reference_super_polar(f, seed, bound, special):
    """The sampled (curve, f on the curve) of one super-polar run built by
    the references from the sampler's draws, its failed attempts (h = 0)
    skipped; none when every attempt fails."""
    run_seed = derive_run_seed(seed, 0)
    rng = random.Random(run_seed)
    n = f.ring.nvars
    for _ in range(RETRY_BUDGET + 1):
        c = sample_super_polar_coefficients(rng, n, bound, run_seed)
        curve = Ideal(f.ring, oracles.super_polar(f, c.a, c.b))
        if special:
            return [(curve, f)]
        h = f.ring.zero()
        for j in range(n):
            h = h + c.beta[j] * oracles.partial(f, j)
        if h:
            curve = oracles.rabinowitsch(curve, h)
            return [(curve, lift_polynomial(f, curve.ring))]
    return []


def _reference_iterated(f, seed, bound):
    """As `_reference_super_polar` for one sliced run, every slice's curve
    in order; the matrix is resampled until Gaussian elimination finds it
    invertible."""
    rng = random.Random(derive_run_seed(seed, 0))
    n = f.ring.nvars
    while True:
        matrix = [[rng.randint(-MATRIX_ENTRY_BOUND, MATRIX_ENTRY_BOUND)
                   for _ in range(n)] for _ in range(n)]
        if oracles.invertible(matrix):
            break
    slice_poly = oracles.substitute_linear(f, matrix)
    curves = []
    for i in range(1, n):
        if i > 1:
            slice_poly = oracles.restrict(slice_poly, 0)
        m = slice_poly.ring.nvars
        beta = [_nonzero_int(rng, bound) for _ in range(m)]
        partials = [oracles.partial(slice_poly, j) for j in range(m)]
        h = slice_poly.ring.zero()
        for j in range(m):
            h = h + beta[j] * partials[j]
        if h:
            curve = oracles.rabinowitsch(
                Ideal(slice_poly.ring, partials[1:]), h
            )
            curves.append((curve, lift_polynomial(slice_poly, curve.ring)))
    return curves


class TestSamplersBuildTheReferenceCurves:
    """The samplers run with the engine stubbed out: every curve passes the
    dimension guard and has no values, so one run records each curve and
    graph it builds, which must be the reference's.  The graph's shift,
    scale and value generator are those of the reference's f on the
    curve, so they check the map that the sampler built the graph from."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        graphs = []
        make_graph = detector._graph_ideal

        def recording_graph(base, form):
            graphs.append((base, make_graph(base, form)))
            return graphs[-1][1]

        monkeypatch.setattr(detector, "_graph_ideal", recording_graph)
        monkeypatch.setattr(detector, "affine_dimension", lambda ideal: 1)
        monkeypatch.setattr(
            detector, "nonproperness_values",
            lambda graph, escape_vars=None, tolerance=None: ValueSet.empty(),
        )
        return graphs

    @staticmethod
    def critical_set(f, finite):
        critical = detector._CriticalSet(f)
        critical.finite = lambda: finite
        critical.values = lambda tolerance: ValueSet.empty()
        return critical

    def check(self, recorded, want):
        assert len(recorded) == len(want)
        for (curve, got), (ref_curve, ref_f) in zip(recorded, want):
            assert curve.ring == ref_curve.ring
            assert curve.generators == ref_curve.generators
            _check_graph(got, ref_curve, ref_f)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(maps(max_deg=3), st.integers(min_value=0, max_value=2**64 - 1),
           st.sampled_from([2, 5, 9999]), st.booleans())
    def test_curve_construction_super_polar_sampler(
        self, recorded, f, seed, bound, special
    ):
        if f.is_constant():
            return
        critical = self.critical_set(f, special)
        recorded.clear()
        want = _reference_super_polar(f, seed, bound, special)
        try:
            run_super_polar(f, seed, runs=1, coeff_bound=bound,
                            force_general=not special, critical=critical)
        except DimensionGuardError:
            assert not want
        self.check(recorded, want)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(maps(max_deg=3), st.integers(min_value=0, max_value=2**64 - 1),
           st.sampled_from([2, 5, 9999]))
    def test_curve_construction_iterated_sampler(self, recorded, f, seed, bound):
        if f.is_constant():
            return
        critical = self.critical_set(f, True)
        recorded.clear()
        run_iterated_polar(f, seed, runs=1, coeff_bound=bound,
                           critical=critical)
        self.check(recorded, _reference_iterated(f, seed, bound))


def test_curve_construction_sampled_matrix_is_the_reference_draw():
    # the integer rank check accepts exactly the draws Gaussian elimination
    # accepts, so the sampler consumes the generator as before
    for seed in range(200):
        for n in (2, 3):
            got = sample_invertible_matrix(random.Random(seed), n, bound=1)
            rng = random.Random(seed)
            while True:
                rows = tuple(tuple(rng.randint(-1, 1) for _ in range(n))
                             for _ in range(n))
                if oracles.invertible(rows):
                    break
            assert got == rows
