"""Basis computation, elimination, dimension, and localization."""

import gc
import itertools
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polarvalues import groebner, polynomials
from polarvalues.groebner import (
    GroebnerBasis,
    Ideal,
    affine_dimension,
    buchberger,
    eliminate,
    graded_basis,
    with_rabinowitsch,
)
from polarvalues.polynomials import (
    Polynomial,
    PolynomialRing,
    extend_ring,
    fresh_variable_name,
    monomial_add,
)
from polarvalues.univar import UnivariatePolynomial

import oracles
from oracles import normal_form, s_polynomial

R2 = PolynomialRing(("x", "y"))
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"))
X3, Y3, U3 = (R3.variable(v) for v in ("x", "y", "u"))


def rand_poly(rng, ring, max_deg=3, max_terms=4, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = Fraction(c)
    return Polynomial(ring, terms)


def _full_run(gens, engine, trace):
    """The basis of a signature run of `gens`, run to its end."""
    return groebner._finish(groebner._core_buchberger(gens, engine, trace))


def _chain_primes(k):
    """The first k primes of a chain that skips none: the narrow agenda's
    first, then the wide agenda's."""
    return [groebner._agenda_prime(0)] + [
        groebner._agenda_prime(i, wide=True) for i in range(k - 1)
    ]


@st.composite
def _blocks(draw, n):
    """Singletons, one block or two blocks over a random sequence of n
    variables."""
    seq = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["singletons", "one_block", "two_blocks"]))
    if kind == "singletons":
        return [(i,) for i in seq]
    if kind == "one_block" or n == 1:
        return [tuple(seq)]
    cut = draw(st.integers(min_value=1, max_value=n - 1))
    return [tuple(seq[:cut]), tuple(seq[cut:])]


@st.composite
def codec_cases(draw):
    """Blocks (`_blocks`) and two exponent vectors small enough that their
    sum keeps every slot, block degrees included, in range.  Exponents
    are often tiny, so that block degrees tie and the reverse-lex slots
    decide."""
    n = draw(st.integers(min_value=1, max_value=4))
    blocks = draw(_blocks(n))
    exponent = st.integers(min_value=0, max_value=2) | st.integers(
        min_value=0, max_value=0x1FFF
    )
    exps = st.tuples(*[exponent] * n)
    return blocks, draw(exps), draw(exps)


def _plain(exps):
    """The plain packing of an exponent vector, each slot 16 bits wide,
    with no range check."""
    plain = 0
    for e in exps:
        plain = (plain << groebner._SLOT_BITS) | e
    return plain


def block_order_key(blocks, e):
    """The block order as a tuple: per block its degree, then the negated
    exponents of its last variable down to its second."""
    out = []
    for block in blocks:
        out.append(sum(e[i] for i in block))
        out.extend(-e[i] for i in reversed(block[1:]))
    return tuple(out)


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(codec_cases())
    def test_against_tuple_reference(self, case):
        blocks, a, b = case
        # c rotates a's exponents inside each block: same block degrees, so
        # only the reverse-lex slots tell a and c apart
        c = list(a)
        for block in blocks:
            for i, j in zip(block, block[1:] + block[:1]):
                c[i] = a[j]
        codec = groebner._Codec(blocks)
        vectors = [a, b, tuple(c)]
        keys = [codec.pack(e) for e in vectors]
        refs = [block_order_key(blocks, e) for e in vectors]
        for (u, ku, ru), (v, kv, rv) in itertools.product(
            zip(vectors, keys, refs), repeat=2
        ):
            assert (ku < kv) == (ru < rv) and (ku == kv) == (ru == rv)
            divides = oracles.monomial_divides(u, v)
            assert groebner._pdivides(ku, kv, codec.guard) == divides
            plain_u, plain_v = codec.plain(ku), codec.plain(kv)
            assert groebner._pdivides(plain_u, plain_v, codec.guard) == divides
        ka, kb = keys[0], keys[1]
        assert ka + kb - codec.one_key == codec.pack(monomial_add(a, b))
        assert codec.unpack(ka) == a
        assert codec.key_from_plain(codec.plain(ka)) == ka
        assert codec.degree(ka) == sum(a)

    def test_block_degree_limit(self):
        # every exponent is in range, but x1..x3 form one block of degree
        # 65537, past its 16-bit slot: packed with |, it spilled into the
        # slot above and ordered x0^2*x1^32767*x2^32767*x3^3 above x0^3.
        # Moving the plain packing to a key raises the same error
        codec = groebner._Codec(((0,), (1, 2, 3)))
        assert codec.pack((3, 0, 0, 0)) > codec.pack((2, 32767, 32767, 1))
        with pytest.raises(ValueError, match="degree 65537 exceeds the engine"):
            codec.pack((2, 32767, 32767, 3))
        with pytest.raises(ValueError, match="degree 65537 exceeds the engine"):
            codec.key_from_plain(_plain((2, 32767, 32767, 3)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                _blocks(n).map(groebner._Codec),
                st.tuples(*[
                    st.integers(min_value=0, max_value=2)
                    | st.integers(min_value=0, max_value=0x7FFF)
                    | st.integers(min_value=0, max_value=0xFFFF)
                ] * n),
            )
        )
    )
    def test_key_from_plain_is_pack(self, case):
        # key_from_plain moves a plain packing by key differences; it must
        # give pack's key, or pack's engine-limit error where a slot, an
        # exponent or a block degree, leaves its range
        codec, exps = case
        plain = _plain(exps)
        try:
            expected = codec.pack(codec.unpack(plain))
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                codec.key_from_plain(plain)
            assert str(raised.value) == str(error)
        else:
            assert codec.key_from_plain(plain) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                _blocks(n).map(groebner._Codec),
                st.lists(
                    st.tuples(*[st.integers(min_value=0, max_value=4)
                                | st.integers(min_value=0, max_value=0x1FFF)]
                              * n),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_lead_is_the_largest_by_degree_then_key(self, case):
        # lead reads each key's degree off its block slots
        codec, vectors = case
        terms = {codec.pack(e): 1 for e in vectors}
        assert codec.lead(terms) == max(
            terms, key=lambda m: (codec.degree(m), m)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    *[st.integers(min_value=0, max_value=2)
                      | st.integers(min_value=0, max_value=0x1FFF)] * n
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_keys_are_per_codec(self, vectors):
        # graded, lex and every stage codec of one ring meet the same plain
        # packings; each must key them under its own order, on the first
        # call and on a repeat
        n = len(vectors[0])
        codecs = [
            groebner._Codec((range(n),)),
            groebner._Codec((i,) for i in range(n)),
        ] + [
            groebner._stage_codec(n, var)
            for var in range(n)
            if n > 1
        ]
        plains = [codecs[0].plain(codecs[0].pack(e)) for e in vectors]
        for _ in range(2):
            for codec in codecs:
                for plain in plains:
                    got = codec.key_from_plain(plain)
                    assert got == codec.pack(codec.unpack(plain))
                    assert codec.plain(got) == plain


class TestSPolynomial:
    def test_classic_example(self):
        s = s_polynomial(X**2, X * Y + Y)
        # lcm x^2 y / lts; s = y*x^2 - x*(xy + y) = -xy
        assert s == -X * Y

    def test_cancels_leading_terms(self):
        p = X**2 + Y
        q = X**2 * Y + X
        s = s_polynomial(p, q)
        assert (2, 1) not in s.terms


class TestNormalForm:
    def test_remainder_underneath_staircase(self):
        basis = [X**2 - Y, Y**2 - 1]
        r = normal_form(X**4 + X, basis)
        # x^4 -> y^2 -> 1
        assert r == X + R2.one()

    def test_difference_in_ideal(self):
        basis = [X**2 - Y, X * Y - 1]
        p = X**3 * Y + 7 * X
        r = normal_form(p, basis)
        # verify p - r reduces to zero again
        assert normal_form(p - r, basis).is_zero()


class TestBuchbergerKnownBases:
    def test_two_lines(self):
        gb = buchberger(Ideal(R2, [X + Y, X - Y]))
        assert [str(e) for e in gb.elements] == ["y", "x"]

    def test_circle_and_line(self):
        gb = buchberger(Ideal(R2, [X**2 + Y**2 - 1, X - Y]))
        assert [str(e) for e in gb.elements] == ["2*y^2 - 1", "x - y"]

    def test_unit_ideal(self):
        gb = buchberger(Ideal(R2, [X * Y - 1, X]))
        assert gb.contains_one()
        assert len(gb.elements) == 1

    def test_zero_ideal(self):
        gb = buchberger(Ideal(R2, []))
        assert gb.elements == ()
        assert not gb.contains_one()

    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 2),
            st.integers(min_value=-6, max_value=6).filter(bool).map(
                lambda c: Fraction(c, 4)
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_principal_ideal_is_its_generator_made_primitive(self, terms):
        # the one-generator shortcut returns what the modular chain lifts:
        # the generator, primitive, with a positive leading coefficient
        g = R2.polynomial(terms)
        ideal = Ideal(R2, [g])
        codec = groebner._Codec(((0,), (1,)))
        chain = groebner._modular_chain(
            groebner._Certificate(ideal), codec
        )[frozenset()]
        assert buchberger(ideal).elements == tuple(
            groebner._from_engine(t, codec, R2) for t in chain
        )

    def test_result_is_reduced(self):
        rng = random.Random(3)
        for _ in range(10):
            gens = [rand_poly(rng, R2) for _ in range(2)]
            gb = buchberger(Ideal(R2, gens))
            for i, e in enumerate(gb.elements):
                others = [b for j, b in enumerate(gb.elements) if j != i]
                if others:
                    # no term of e is divisible by another leading term
                    assert normal_form(e, others) == e

    def test_prime_field_monic_basis(self):
        p = 32003
        codec = groebner._Codec(((0,), (1,)))
        gens = [
            groebner._to_engine(g, codec) for g in (X**2 + Y**2 - 1, X - Y)
        ]
        basis = _full_run(
            [{m: c % p for m, c in t.items()} for t in gens],
            groebner._ModularArith(p, codec),
            groebner._Trace(),
        )
        for t in basis:
            assert t[max(t)] == 1
        assert [
            {codec.unpack(m): c for m, c in t.items()} for t in basis
        ] == [
            {(0, 2): 1, (0, 0): 16001},
            {(1, 0): 1, (0, 1): 32002},
        ]

    def test_rational_vs_prime_field_staircase(self):
        rng = random.Random(17)
        p = 32003
        codec = groebner._Codec(((0,), (1,)))
        engine = groebner._ModularArith(p, codec)
        checked = 0
        for _ in range(15):
            gens = [rand_poly(rng, R2) for _ in range(2)]
            gbq = buchberger(Ideal(R2, gens))
            image = [
                {m: c % p for m, c in groebner._to_engine(g, codec).items()}
                for g in gens
            ]
            basis = _full_run(image, engine, groebner._Trace())
            if basis == [{codec.one_key: 1}]:
                assert gbq.contains_one()
                continue
            assert not gbq.contains_one()
            # for a generic prime the leading staircases agree
            assert [max(e.terms) for e in gbq.elements] == [
                codec.unpack(max(t)) for t in basis
            ]
            checked += 1
        assert checked >= 5


class TestElimination:
    def test_lex_tail_extraction(self):
        # lex in ring order reads y last, so the basis elements free of
        # x are a basis of the elimination ideal
        ideal = Ideal(R2, [X**2 + Y**2 - 1, X - Y])
        gb = buchberger(ideal)
        only_y = [e for e in gb.elements if e.support_variables() <= {1}]
        assert [str(e) for e in only_y] == ["2*y^2 - 1"]

    def test_block_route_agrees_with_lex_route(self):
        rng = random.Random(23)
        for _ in range(12):
            gens = [rand_poly(rng, R2) for _ in range(2)]
            ideal = Ideal(R2, gens)
            lex_elems = [
                e
                for e in buchberger(ideal).elements
                if e.support_variables() <= {1}
            ]
            blk_elems = eliminate(ideal, {1})
            # same elimination ideal: cross-reduce to zero both ways
            for e in lex_elems:
                assert normal_form(e, blk_elems or [R2.zero()]).is_zero() or not blk_elems
            for e in blk_elems:
                assert normal_form(e, lex_elems or [R2.zero()]).is_zero() or not lex_elems
            assert bool(lex_elems) == bool(blk_elems)

    def test_eliminate_validates_keep(self):
        with pytest.raises(ValueError):
            eliminate(Ideal(R2, [X]), set())
        with pytest.raises(ValueError):
            eliminate(Ideal(R2, [X]), {5})

    def test_eliminate_unit_ideal(self):
        out = eliminate(Ideal(R2, [X, X - R2.one()]), {1})
        assert len(out) == 1 and out[0].is_constant()

    def test_drop_a_variable_no_generator_involves(self):
        # the root stage that drops w gets the certificate's basis, which
        # does not involve w but is not reduced: it must run all the same
        # and return the reduced graded basis of <x^2 + y, x*y + 1> on the
        # kept variables in reverse ring order (y before x), ascending
        ring = PolynomialRing(("x", "y", "w"))
        x, y, _ = ring.gens()
        out = eliminate(Ideal(ring, [x**2 + y, x * y + 1]), {0, 1})
        assert out == [x**2 + y, x * y + 1, -x + y**2]

    def test_roots_contained_in_resultant_roots(self):
        """Elimination-based projection against the Sylvester oracle."""
        rng = random.Random(41)
        from polarvalues.univar import UnivariatePolynomial, gcd_univar

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


class TestDimension:
    CASES = [
        ([], 2, 2),
        (["x"], 2, 1),
        (["x", "y"], 2, 0),
        (["x*y - 1"], 2, 1),
        (["x", "x - 1"], 2, -1),
        ([], 3, 3),
        (["x"], 3, 2),
        (["x", "y"], 3, 1),
        (["x", "y", "u"], 3, 0),
        (["x*y*u - 1"], 3, 2),
    ]

    @pytest.mark.parametrize("gens,nvars,expected", CASES)
    def test_dimension_fixtures(self, gens, nvars, expected):
        from polarvalues.cli import parse_polynomial

        ring = R2 if nvars == 2 else R3
        polys = [parse_polynomial(g, ring.variables) for g in gens]
        ideal = Ideal(ring, polys)
        assert affine_dimension(ideal) == expected

    def test_graded_basis_generates_same_ideal(self):
        rng = random.Random(9)
        for _ in range(8):
            gens = [rand_poly(rng, R3, max_deg=2) for _ in range(2)]
            basis = graded_basis(Ideal(R3, gens))
            gb = buchberger(Ideal(R3, basis))
            gb_direct = buchberger(Ideal(R3, gens))
            assert [str(e) for e in gb.elements] == [
                str(e) for e in gb_direct.elements
            ]


_small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.integers(min_value=-7, max_value=7).map(Fraction),
    min_size=1,
    max_size=4,
).map(R3.polynomial)


# coefficients c or c + 32003: modulo 32003 they cancel where the small
# ones do, and modulo another prime they need not, so a schedule recorded
# at 32003 can leave a term unreduced that is reducible elsewhere
_shifted_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.tuples(
        st.integers(min_value=-7, max_value=7).filter(bool), st.booleans()
    ).map(lambda cb: Fraction(cb[0] + 32003 * cb[1])),
    min_size=1,
    max_size=4,
).map(R3.polynomial)


def _fixed_graph_ideal():
    """The graph ideal of x + x^2*y over fixed super-polar coefficients."""
    from polarvalues.detector import SuperPolarCoefficients, super_polar_ideal
    from polarvalues.nonproper import graph_ideal

    coeffs = SuperPolarCoefficients(
        seed=0,
        a=((1, 1, -5), (-1, 3, 2)),
        b=(
            ((1, -1, 2), (4, -2, 3), (-3, -1, -3)),
            ((-4, 4, -1), (3, 4, -3), (-1, -4, -4)),
        ),
        beta=(5, 2, 3),
    )
    f = X3 + X3**2 * Y3
    return graph_ideal(super_polar_ideal(f, coeffs), f)


class TestModularKernel:
    @pytest.mark.parametrize("p", [3, 32003, groebner._agenda_prime(0)])
    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.sampled_from(
            [((0, 1, 2),), ((0,), (1,), (2,)), ((0,), (1, 2))]
        ),
        gens=st.lists(_small_polys, min_size=1, max_size=3),
        free=_small_polys,
        multipliers=st.lists(_small_polys, max_size=3),
        vanishing=_small_polys,
        in_ideal=st.booleans(),
    )
    def test_reduce_matches_eager_reference(
        self, p, blocks, gens, free, multipliers, vanishing, in_ideal
    ):
        # the normal form by a Groebner basis is unique, so the engine's
        # reducer (lazy coefficients) and the eager oracle must agree
        codec = groebner._Codec(blocks)
        engine = groebner._ModularArith(p, codec)
        packed = []
        for g in gens:
            t = {codec.pack(m): int(c) % p for m, c in g.terms.items()}
            t = {m: c for m, c in t.items() if c}
            if t:
                packed.append(t)
        basis = _full_run(packed, engine, groebner._Trace())
        target = R3.zero() if in_ideal else free
        for q, b in zip(multipliers, basis):
            target = target + q * Polynomial(
                R3, {codec.unpack(m): Fraction(c) for m, c in b.items()}
            )
        # a multiple of p: its coefficients vanish when they reach the top
        target = target + p * vanishing
        target = {codec.pack(m): int(c) for m, c in target.terms.items()}
        expected = oracles.mod_p_normal_form(target, basis, p, codec.guard)
        got = engine.reduce(
            target, [engine.reducer_entry(t) for t in basis], []
        )
        assert got == expected
        if in_ideal:
            assert got == {}

    def test_graph_ideal_work(self, monkeypatch):
        """The graded basis of the graph ideal of x + x^2*y over a fixed
        super-polar curve, then the stage that drops x, modulo the first
        agenda prime: with the shortest reducer first they took 78
        S-polynomials and 32,622 reducer-term updates; with the first
        installed divisor and monic tails, 70 and 26,495, besides the 11
        generator reductions.  The signature run makes 52 regular
        reductions, generators included, and 9,555 updates."""
        graph = _fixed_graph_ideal()
        p = groebner._agenda_prime(0)
        counts = {"regular": 0, "updates": 0}

        class CountingTerms(dict):
            def items(self):
                counts["updates"] += len(self)
                return dict.items(self)

        def counting_engine(codec):
            engine = groebner._ModularArith(p, codec)
            entry, reduce = engine.reducer_entry, engine.reduce

            def counting_entry(terms):
                return tuple(
                    CountingTerms(x) if isinstance(x, dict) else x
                    for x in entry(terms)
                )

            def counting_reduce(target, reducers, steps, signature=None):
                counts["regular"] += signature is not None
                return reduce(target, reducers, steps, signature)

            monkeypatch.setattr(engine, "reducer_entry", counting_entry)
            monkeypatch.setattr(engine, "reduce", counting_reduce)
            return engine

        graded = groebner._Codec((range(4),))
        gens = [
            {m: c % p for m, c in groebner._to_engine(g, graded).items()}
            for g in graph.ideal.generators
        ]
        seed = _full_run(
            gens, counting_engine(graded), groebner._Trace()
        )
        stage = groebner._Codec(((0,), (1, 2, 3)))
        elems = [
            {stage.pack(graded.unpack(m)): c for m, c in t.items()}
            for t in seed
        ]
        out = _full_run(
            elems, counting_engine(stage), groebner._Trace()
        )
        assert len(out) == 9
        assert counts["regular"] <= 55
        assert counts["updates"] <= 10_500


_GRADED3 = groebner._Codec((range(3),))

# factors far above the growth trigger's slack, and 1
_BIG = st.sampled_from([1, 1, 2**61 - 1, 3**40])


def _integer_terms(p, codec):
    """The packed dict of a polynomial with integer coefficients."""
    return {codec.pack(m): int(c) for m, c in p.terms.items()}


def _primitive(p, codec):
    """p scaled to primitive integers with a positive leading coefficient
    under the graded order, packed under `codec`; no engine code."""
    if p.is_zero():
        return {}
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = {m: int(c * den) for m, c in p.terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints, key=oracles.graded_key)] < 0:
        g = -g
    return {codec.pack(m): v // g for m, v in ints.items()}


def _entry_polynomial(entry, codec, ring):
    lt, lc, tail = entry
    terms = {codec.unpack(m): Fraction(c) for m, c in tail.items()}
    terms[codec.unpack(lt)] = Fraction(lc)
    return Polynomial(ring, terms)


@st.composite
def _integer_reductions(draw):
    """Reducers of a random integer ideal of R3 (its generators or their
    graded basis), each with its leading coefficient and then its content
    multiplied by a drawn factor, and a target: a combination of them plus,
    when drawn, a free part, times a drawn content."""
    gens = [g for g in draw(st.lists(_small_polys, min_size=1, max_size=3))
            if not g.is_zero()]
    if gens and draw(st.booleans()):
        gens = graded_basis(Ideal(R3, gens))
    reducers = []
    for g in gens:
        terms = dict(g.terms)
        terms[max(terms, key=oracles.graded_key)] *= draw(_BIG)
        content = draw(_BIG)
        reducers.append(
            R3.polynomial({m: c * content for m, c in terms.items()})
        )
    target = draw(_small_polys) if draw(st.booleans()) else R3.zero()
    for r in reducers:
        target = target + draw(_small_polys) * r
    return reducers, draw(_BIG) * target


class _CountingList(list):
    """A reducer list that counts the divisor searches run over it."""

    def __init__(self, items):
        super().__init__(items)
        self.lookups = 0

    def __iter__(self):
        self.lookups += 1
        return super().__iter__()


def _prime_powers(count, bits):
    """The first `count` primes, each raised to about `bits` bits."""
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % q for q in primes):
            primes.append(n)
        n += 1
    return [q ** (bits // q.bit_length()) for q in primes]


class TestIntegerReduce:
    @settings(max_examples=60, deadline=None)
    @given(case=_integer_reductions())
    def test_matches_fraction_oracle(self, case):
        # each step divides the top by the first reducer, in list order,
        # whose leading monomial divides it, so the engine and the Fraction
        # oracle take the same steps whatever the reducers; the output may
        # not depend on when content is removed: at the default growth
        # trigger, at every step, or never
        reducers, target = case
        arith = groebner._IntegerArith(_GRADED3)
        entries = arith.reducers(
            [_integer_terms(r, _GRADED3) for r in reducers]
        )
        ordered = [_entry_polynomial(e, _GRADED3, R3) for e in entries]
        expected = _primitive(
            normal_form(target, ordered, oracles.graded_key), _GRADED3
        )
        packed = _integer_terms(target, _GRADED3)
        for growth, slack in (
            (groebner._CONTENT_GROWTH, groebner._CONTENT_SLACK_BITS),
            (0, -1),
            (0, 10**9),
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(groebner, "_CONTENT_GROWTH", growth)
                patch.setattr(groebner, "_CONTENT_SLACK_BITS", slack)
                assert arith.reduce(packed, entries) == expected
                assert arith.reduces_to_zero(packed, entries) == (
                    not expected
                )

    def test_membership_stops_at_the_first_irreducible_term(
        self, monkeypatch
    ):
        # x^9 has no divisor among y - 1 and u - 2, and lies above the 54
        # terms of degree 1 to 9 in y and u, which all reduce to
        # constants: a full normal form searches a divisor for each of
        # them, a membership test only for x^9.  Written as <y - 1, u - 2>
        # the ideal is a graph ideal, whose certificate orders u first
        # (`_value_generator`); with u in both generators its certificate
        # is the graded basis {y - 1, u - 2}
        ideal = Ideal(R3, [Y3 - 1 + X3 * (U3 - 2), U3 - 2])
        tail = R3.polynomial(
            {(0, a, b): Fraction(1) for a in range(10) for b in range(10 - a)
             if a + b}
        )
        target = X3**9 + tail
        certificate = groebner._Certificate(ideal)
        certificate.basis()
        reducers = certificate._reducers = _CountingList(
            certificate._reducers
        )
        assert certificate.contains(target) is False
        assert reducers.lookups == 1
        assert certificate.contains(tail) is False
        assert reducers.lookups > 1 + len(tail.terms)

        codec = certificate.codec
        counted = []
        entries = groebner._IntegerArith.reducers

        def counting_reducers(basis):
            counted.append(_CountingList(entries(basis)))
            return counted[-1]

        monkeypatch.setattr(
            groebner._IntegerArith, "reducers", staticmethod(counting_reducers)
        )
        assert certificate.codec.blocks == ((0, 1, 2),)
        gens = [groebner._to_engine(g, codec) for g in (Y3 - 1, U3 - 2)]
        assert not groebner._exact_basis_check(
            gens + [groebner._to_engine(target, codec)], gens, codec
        )
        # y - 1 and u - 2 have coprime leading terms: no S-polynomial; each
        # generator reduces to zero in one step, then x^9 is refuted
        assert counted[-1].lookups == 3

    def test_basis_check_refutes_an_s_polynomial(self):
        # <x^2, xy + y^2> as its own candidate: each generator reduces to
        # zero by it, but the S-polynomial y*x^2 - x*(xy + y^2) = -xy^2
        # reduces to y^3, so it is no Groebner basis
        codec = groebner._Codec((range(2),))
        gens = [groebner._to_engine(g, codec) for g in (X**2, X * Y + Y**2)]
        arith = groebner._IntegerArith(codec)
        assert all(arith.reduces_to_zero(g, arith.reducers(gens))
                   for g in gens)
        assert not groebner._exact_basis_check(gens, gens, codec)

    def test_content_swell_stays_bounded(self):
        """Each pair of reducers p*m_{2j} - m_{2j+1}, m_{2j+1} -
        p*m_{2j+2}, with m_i = x^(200-i) * y^i and p a prime power of about
        2048 bits, moves the top term down two steps.  Over the rationals
        its coefficient goes 1 -> 1/p -> 1.  Over the integers the first
        step scales the whole working polynomial by p, and the second
        leaves p as its content, also on the 200 terms of degree 199 below,
        which no reducer divides.  Without content removal those terms
        would grow by 2048 bits at each of the 100 pairs: on a 2-core
        Intel Xeon with Python 3.11 the reduction then takes 6 to 6.5 s,
        against 0.15 s with it.  Each pair has its own prime, because a content sharing a
        factor with the next leading coefficient c is absorbed by
        gcd(c, p) instead of growing."""
        pairs = 100
        degree = 2 * pairs
        monos = [(degree - i, i) for i in range(degree + 1)]
        basis = []
        for j, p in enumerate(_prime_powers(pairs, 2048)):
            basis.append(R2.polynomial(
                {monos[2 * j]: Fraction(p), monos[2 * j + 1]: Fraction(-1)}
            ))
            basis.append(R2.polynomial(
                {monos[2 * j + 1]: Fraction(1), monos[2 * j + 2]: Fraction(-p)}
            ))
        below = {(a, degree - 1 - a): Fraction(1 + a % 5)
                 for a in range(degree)}
        target = R2.polynomial({monos[0]: Fraction(1), **below})
        codec = groebner._Codec((range(2),))
        arith = groebner._IntegerArith(codec)
        entries = arith.reducers([_integer_terms(b, codec) for b in basis])
        start = time.perf_counter()
        got = arith.reduce(_integer_terms(target, codec), entries)
        seconds = time.perf_counter() - start
        ordered = [_entry_polynomial(e, codec, R2) for e in entries]
        expected = normal_form(target, ordered, oracles.graded_key)
        assert expected == R2.polynomial({monos[-1]: Fraction(1), **below})
        assert got == _primitive(expected, codec)
        assert seconds < 2.0


class TestChain:
    def test_stages_stop_with_their_outputs(self, watch_node_runs):
        # x - y^2 is proved at its first prime; the (x, u) relation
        # (u - 1)^2 - B^2*x, B^2 = 3^800 of 1,268 bits, reconstructs once
        # the modulus M has 2*1,268 + 1 bits (B^2 <= sqrt(M/2)): 120 + 240*10
        # bits fall short, so it takes the 120-bit prime and 11 wide ones
        # (12 in all, the last of which proves it), and only its own
        # stage keeps running for it.  The ideal is a graph ideal, and its
        # seed, {x - y^2, u - B*y - 1} under the certificate's order, never
        # runs: no basis under the graded order is computed
        big = 3**400
        ideal = Ideal(R3, [X3 - Y3**2, U3 - big * Y3 - 1])
        runs = {}

        def counting(gens, engine):
            if engine.codec.nvars == 3:
                runs[engine.codec.blocks] = runs.get(engine.codec.blocks, 0) + 1

        groebner._certificate(ideal).basis()
        watch_node_runs(counting)
        drop_u, drop_y = frozenset({2}), frozenset({1})
        lifted = groebner._eliminations(ideal, [drop_u, drop_y])
        assert lifted[drop_u] == [Y3**2 - X3]
        assert lifted[drop_y] == [(U3 - 1) ** 2 - big**2 * X3]
        # each stage orders the rest in reverse ring order
        stage_u, stage_y = ((2,), (1, 0)), ((1,), (2, 0))
        assert runs == {stage_u: 1, stage_y: 12}

    @pytest.mark.parametrize("graph", [False, True])
    def test_eliminations_run_no_graded_basis(self, watch_node_runs, graph):
        # an elimination chain's seed, the certificate's basis, never runs:
        # each root stage reduces it under its own block order, so no basis
        # under a one-block (graded) codec is computed.  The fixed graph
        # ideal is certified under ((z), rest); with u in both generators
        # the other ideal is certified by its homogenized graded basis
        if graph:
            ideal = _fixed_graph_ideal().ideal
        else:
            g = U3 - X3**2 - 3 * Y3
            ideal = Ideal(R3, [X3 * Y3 - 1 + X3 * g, g])
        n = ideal.ring.nvars
        blocks = []
        groebner._certificate(ideal).basis()
        watch_node_runs(
            lambda gens, engine: blocks.append(engine.codec.blocks)
        )
        drops = [
            frozenset(j for j in range(n - 1) if j != i) for i in range(n - 1)
        ]
        lifted = groebner._eliminations(ideal, drops)
        assert set(lifted) == set(drops)
        assert blocks and all(len(b) == 2 for b in blocks)


def _ascending_tree(drops):
    """Stages dropping each set's variables in ascending index order, sets
    that share a prefix sharing its stages."""
    nodes = {frozenset(): 0}
    tree = []
    for drop in drops:
        done = frozenset()
        for i in sorted(drop):
            step = done | {i}
            if step not in nodes:
                tree.append((nodes[done], i))
                nodes[step] = len(tree)
            done = step
    return tree


_chain_ideals = st.integers(min_value=3, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(PolynomialRing(tuple("xyuv"[:n]))),
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(min_value=0, max_value=2)] * n),
                st.integers(min_value=-5, max_value=5)
                .filter(bool)
                .map(Fraction),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1,
                    max_size=n - 1).map(frozenset),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
)


def _homogenized(ideal):
    """The ideal's generators homogenized in a new variable, placed last:
    a homogeneous ideal, whose whole basis its chain lifts itself."""
    names = ideal.ring.variables
    ring = extend_ring(ideal.ring, fresh_variable_name(names, "h"))
    return Ideal(ring, [
        ring.polynomial({
            m + (g.total_degree() - sum(m),): c for m, c in g.terms.items()
        })
        for g in ideal.generators
    ])


def _localizers(n):
    """Polynomials h in n variables to localize at (`with_rabinowitsch`):
    one or two terms, each of degree at most 1 in every variable."""
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=1)] * n),
        st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction),
        min_size=1,
        max_size=2,
    )


@st.composite
def _stage_order_cases(draw):
    """An ideal of `_chain_ideals` and its drop sets; on three variables at
    times localized at one more random polynomial h (`with_rabinowitsch`
    prepends t), whose drop sets then drop t too, or at times keep it.
    (Localized in five variables, the reference's pair loop can take
    minutes.)"""
    ring, gens, drops = draw(_chain_ideals)
    ideal = Ideal(ring, [ring.polynomial(g) for g in gens])
    if ring.nvars == 3 and draw(st.booleans()):
        h = draw(_localizers(ring.nvars))
        ideal = with_rabinowitsch(ideal, ring.polynomial(h))
        t = frozenset({0}) if draw(st.booleans()) else frozenset()
        drops = [t | {j + 1 for j in d} for d in drops]
    return ideal, drops


def _elimination_mod_q(ideal, drop, kept):
    """The codec of the blocks (drop, kept) and the reduced basis modulo
    _REFERENCE_PRIME of the ideal's intersection with the subring on
    `kept`, graded reverse-lex on `kept` in the order listed, by the
    Gebauer-Moller reference of tests/oracles.py."""
    codec, basis = _reference_basis(ideal, [sorted(drop), kept])
    mask = sum(
        groebner._SLOT_MASK << groebner._SLOT_BITS * (codec.nvars - 1 - j)
        for j in drop
    )
    return codec, [t for t in basis if not groebner._involves(t, mask)]


def _generated_mod_q(elems, basis, codec):
    """Whether each packed dict lies modulo _REFERENCE_PRIME in the ideal
    of `basis`, a Groebner basis modulo that prime under `codec`."""
    return not any(
        oracles.mod_p_normal_form(
            {m: c % _REFERENCE_PRIME for m, c in t.items()},
            basis, _REFERENCE_PRIME, codec.guard,
        )
        for t in elems
    )


class TestStageOrder:
    @settings(max_examples=40, deadline=None)
    @given(case=_stage_order_cases())
    @example(
        # <x^2 + y, x*y + 1> meets Q[x, y] in three generators
        case=(Ideal(R3, [X3**2 + Y3, X3 * Y3 + 1]), [frozenset({2})]),
    )
    @example(
        # the curve x*y = u, x^2 = 1 off x + u = 0, in (t, x, y, u): its
        # intersection with (x, y, u) has four generators, with (y, u) one
        # and with (t, x, y), which keeps t, two
        case=(
            with_rabinowitsch(
                Ideal(R3, [X3 * Y3 - U3, X3**2 - 1]), X3 + U3
            ),
            [frozenset({0}), frozenset({0, 1}), frozenset({3})],
        ),
    )
    def test_stage_order_keeps_every_elimination_ideal(self, case):
        # every stage orders the kept variables in reverse ring order: each
        # output is the reduced graded basis under that order, and it
        # generates the intersection that the reference computes with the
        # kept variables in ring order, each basis lying in the other's
        # ideal.  The references run modulo a prime that no chain uses, so
        # their coefficients do not swell
        ideal, drops = case
        ring = ideal.ring
        q = _REFERENCE_PRIME
        lifted = groebner._eliminations(ideal, drops)
        for drop in drops:
            kept = [j for j in range(ring.nvars) if j not in drop]
            reverse, expected = _elimination_mod_q(ideal, drop, kept[::-1])
            got = [groebner._to_engine(e, reverse) for e in lifted[drop]]
            assert oracles.candidate_mod_p(got, q) == expected
            forward, reference = _elimination_mod_q(ideal, drop, kept)
            moved = [
                {forward.key_from_plain(reverse.plain(m)): c
                 for m, c in t.items()}
                for t in expected
            ]
            assert _generated_mod_q(moved, reference, forward)
            back = [
                {reverse.key_from_plain(forward.plain(m)): c
                 for m, c in t.items()}
                for t in reference
            ]
            assert _generated_mod_q(back, expected, reverse)


class TestPlannedTree:
    def test_plan_prices_only_ties_that_change_the_tree(self):
        asked = []
        prices = {0: 270, 1: 190, 2: 80}

        def race(candidates):
            asked.append(set(candidates))
            return min(candidates, key=lambda var: (prices[var], var))

        # every variable lies in two sets: u is the cheapest, then y, which
        # a second race between x and y picks
        drops = [frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})]
        assert groebner._plan(drops, race) == [
            (0, 2), (1, 0), (1, 1), (0, 1), (4, 0)
        ]
        assert asked == [{0, 1, 2}, {0, 1}]
        # equal prices fall back to the index
        assert groebner._plan(drops, min) == [
            (0, 0), (1, 1), (1, 2), (0, 1), (4, 2)
        ]
        # t lies in both sets and goes first; x and y, and the two
        # variables of single-variable sets, never share a set, so their
        # order leaves the tree alone and nothing is raced
        asked.clear()
        assert groebner._plan(
            [frozenset({0, 2}), frozenset({0, 1})], race
        ) == [(0, 0), (1, 1), (1, 2)]
        assert groebner._plan(
            [frozenset({1}), frozenset({0})], race
        ) == [(0, 0), (0, 1)]
        assert groebner._plan([frozenset()], race) == []
        # a tie that only one set holds, or one below the root, goes to
        # the index unraced
        assert groebner._plan([frozenset({0, 1, 2})], race) == [
            (0, 0), (1, 1), (2, 2)
        ]
        assert groebner._plan(
            [frozenset({3, 1, 2}), frozenset({3, 0, 2}), frozenset({3, 0, 1})],
            race,
        ) == [(0, 3), (1, 0), (2, 1), (2, 2), (1, 1), (5, 2)]
        assert asked == []

    @settings(max_examples=200, deadline=None)
    @given(
        drops=st.lists(
            st.sets(st.integers(min_value=0, max_value=4), min_size=1,
                    max_size=4).map(frozenset),
            min_size=1,
            max_size=5,
        ),
        steps=st.lists(
            st.lists(st.integers(min_value=0, max_value=9), max_size=6),
            min_size=5,
            max_size=5,
        ),
    )
    def test_lazy_race_plans_the_tree_of_exhaustive_totals(
        self, drops, steps
    ):
        # each variable's run yields the work of its steps in turn; the
        # lazy race must pick what the least total, then the index, picks,
        # and in each race no run takes a step once it has spent more than
        # the winner's total: a loser ends at most one step past it
        totals = [sum(s) for s in steps]
        exhaustive = groebner._plan(
            drops, lambda candidates: min(
                candidates, key=lambda var: (totals[var], var)
            )
        )
        spent = {}  # var -> (race number, work before the step) per step
        races = [0]

        def start(var):
            spent[var] = []
            work = 0
            for step in steps[var]:
                spent[var].append((races[0], work))
                work += step
                yield step

        lazy = groebner._race(start)

        def race(candidates):
            races[0] += 1
            winner = lazy(candidates)
            assert all(
                before <= totals[winner]
                for var in candidates
                for number, before in spent.get(var, ())
                if number == races[0]
            )
            return winner

        assert groebner._plan(drops, race) == exhaustive

    @settings(max_examples=25, deadline=None)
    @given(case=_chain_ideals)
    def test_priced_tree_lifts_the_ascending_outputs(self, case):
        # the tree decides only which stages run, never what is lifted:
        # each output is the unique reduced basis of its elimination ideal.
        # The ascending chain is held to a second prime, where every stage,
        # the root stages on the certificate's basis included, replays the
        # record of the first
        ring, gens, drops = case
        ideal = Ideal(ring, [ring.polynomial(t) for t in gens])
        codec = groebner._Codec((range(ring.nvars),))
        certificate = groebner._Certificate(ideal)
        priced = groebner._modular_chain(certificate, codec, drops)
        held = groebner._agenda_prime(0)
        reconstruct = groebner._CrtState.reconstruct
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                groebner, "_plan", lambda drops, race: _ascending_tree(drops)
            )
            patch.setattr(
                groebner._CrtState, "reconstruct",
                lambda state: None if state.modulus <= held
                else reconstruct(state),
            )
            ascending = groebner._modular_chain(certificate, codec, drops)

        def polys(lifted):
            return {
                d: [groebner._from_engine(t, codec, ring) for t in elems]
                for d, elems in lifted.items()
            }

        assert polys(priced) == polys(ascending)
        assert set(priced) == set(drops)

    def test_graph_ideal_drops_u_first(self, monkeypatch, hold_reconstruction):
        # on the graph ideal of x + x^2*y the stage dropping u does the
        # least work at the first prime, then y, then x: at every prime
        # (the outputs are held back to make a second one) the chain runs
        # {u} -> {u, y}, {u} -> {u, x} and {y} -> {y, x}, and the stage of
        # x, stopped by the race at the first prime, is no node's run and
        # keeps no trace
        graph = _fixed_graph_ideal()
        x, y, u = 0, 1, 2
        n = graph.ideal.ring.nvars
        runs = {}
        held = {}
        chain = groebner._chain_mod_p

        def tracked(p, codecs, stages, masks, needed, traces, bases):
            chain(p, codecs, stages, masks, needed, traces, bases)
            if codecs[0].nvars == n:
                dropped = [frozenset()]
                for parent, var in stages:
                    dropped.append(dropped[parent] | {var})
                for seen, nodes in ((runs, bases), (held, traces)):
                    seen.setdefault(p, set()).update(
                        (dropped[parent], var)
                        for node, (parent, var) in enumerate(stages, 1)
                        if node in nodes
                    )
            return bases

        # the certificate's own chain runs on the homogenized curve, in as
        # many variables as the graph: build it first
        groebner._certificate(graph.ideal).basis()
        monkeypatch.setattr(groebner, "_chain_mod_p", tracked)
        hold_reconstruction(1)
        drops = [
            frozenset(j for j in range(3) if j != i) for i in range(3)
        ]
        groebner._eliminations(graph.ideal, drops)
        tree = {
            (frozenset(), u), (frozenset({u}), y), (frozenset({u}), x),
            (frozenset(), y), (frozenset({y}), x),
        }
        first, second, *later = runs.values()
        assert first == second == tree
        assert all(run <= tree for run in later)
        first, *later = held.values()
        assert first == tree
        assert later and all(stages <= tree for stages in later)

    def test_race_stops_the_dearest_root_stage(
        self, monkeypatch, hold_reconstruction
    ):
        # on the same graph ideal the root stage of x loses both races at
        # the first prime, to u and then to y: it stops there with fewer
        # reductions than its complete run makes, its trace is never a
        # node's, and no later prime runs or replays it
        graph = _fixed_graph_ideal()
        x, y, u = 0, 1, 2
        n = graph.ideal.ring.nvars
        root_x = groebner._stage_codec(n, x).blocks
        core = groebner._core_buchberger
        replay = groebner._replay_buchberger
        reduce = groebner._ModularArith.reduce
        chain = groebner._chain_mod_p
        started = []  # (prime, engine, input, trace) of each run of x's root
        replayed = []
        reductions = Counter()
        kept = []

        def is_root_x(gens, engine):
            # the root stage's input still holds y and u; the stages
            # {y} -> {y, x} and {u} -> {u, x} have the same blocks, but no
            # y or no u
            return engine.codec.blocks == root_x and all(
                any(
                    groebner._involves(
                        t, groebner._SLOT_MASK
                        << (groebner._SLOT_BITS * (n - 1 - var))
                    )
                    for t in gens
                )
                for var in (y, u)
            )

        def watched_core(gens, engine, trace):
            if is_root_x(gens, engine):
                started.append((engine.p, engine, list(gens), trace))
            return core(gens, engine, trace)

        def watched_replay(gens, engine, trace):
            if is_root_x(gens, engine):
                replayed.append(engine.p)
            return replay(gens, engine, trace)

        def counting_reduce(self, target, reducers, steps, signature=None):
            # per engine: every stage that drops x shares x's codec
            if signature is not None:
                reductions[self] += 1
            return reduce(self, target, reducers, steps, signature)

        def tracked(p, codecs, stages, masks, needed, traces, bases):
            kept.extend(traces.values())
            chain(p, codecs, stages, masks, needed, traces, bases)
            kept.extend(traces.values())
            return bases

        groebner._certificate(graph.ideal).basis()
        monkeypatch.setattr(groebner, "_core_buchberger", watched_core)
        monkeypatch.setattr(groebner, "_replay_buchberger", watched_replay)
        monkeypatch.setattr(groebner._ModularArith, "reduce", counting_reduce)
        monkeypatch.setattr(groebner, "_chain_mod_p", tracked)
        hold_reconstruction(1)
        drops = [
            frozenset(j for j in range(3) if j != i) for i in range(3)
        ]
        groebner._eliminations(graph.ideal, drops)
        assert len(started) == 1 and replayed == []
        p, engine, gens, trace = started[0]
        assert p == groebner._agenda_prime(0)
        assert all(t is not trace for t in kept)
        complete = groebner._ModularArith(p, engine.codec)
        _full_run(gens, complete, groebner._Trace())
        assert 0 < reductions[engine] < reductions[complete]

    def test_finished_chain_frees_its_traces(self):
        # nothing outside a chain refers to its traces, so they go as it
        # returns, not when the cycle collector next runs
        graph = _fixed_graph_ideal()
        drops = [
            frozenset(j for j in range(3) if j != i) for i in range(3)
        ]

        def traces():
            return sum(
                isinstance(o, groebner._Trace) for o in gc.get_objects()
            )

        gc.collect()
        gc.disable()
        try:
            before = traces()
            groebner._eliminations(graph.ideal, drops)
            after = traces()
        finally:
            gc.enable()
        assert after == before


def _lost_leading_term():
    """The codec and packed generators Y^3 + Y^2, 3XY^2 + Y^2 under the
    graded order: modulo 3 the second one loses its leading term XY^2.
    Modulo 32003 and the agenda primes the signature run reduces one
    J-pair to zero; modulo 3 too, another one."""
    codec = groebner._Codec((range(2),))
    return codec, [
        groebner._to_engine(g, codec)
        for g in (Y**3 + Y**2, 3 * X * Y**2 + Y**2)
    ]


def _zeros(trace):
    """The entries of a trace that record a reduction to zero."""
    return [entry for entry in trace.entries if entry[1] is None]


_SIGNATURE_PRIMES = [3, 5, 7, 32003] + _chain_primes(2)


@st.composite
def _signature_ideals(draw):
    """A codec with one block, singleton blocks (lex) or a stage's blocks
    (`groebner._stage_codec`) on 3 or 4 variables, and up to four
    generators of total degree at most 2 or 3, packed under it.  A coefficient c or
    c + 32003 cancels modulo 32003 where c does, and need not elsewhere."""
    n = draw(st.integers(min_value=3, max_value=4))
    degree = draw(st.integers(min_value=2, max_value=3))
    kind = draw(st.sampled_from(["one_block", "lex", "leading"]))
    if kind == "one_block":
        blocks = (tuple(range(n)),)
    elif kind == "lex":
        blocks = tuple((i,) for i in range(n))
    else:
        var = draw(st.integers(min_value=0, max_value=n - 1))
        blocks = groebner._stage_codec(n, var).blocks
    monomials = st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=degree
    ).map(lambda vs: tuple(vs.count(i) for i in range(n)))
    coefficients = st.tuples(
        st.integers(min_value=-7, max_value=7).filter(bool), st.booleans()
    ).map(lambda cb: cb[0] + 32003 * cb[1])
    gens = draw(st.lists(
        st.dictionaries(monomials, coefficients, min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ))
    codec = groebner._Codec(blocks)
    return codec, [{codec.pack(m): c for m, c in g.items()} for g in gens]


def _modular_image(gens, codec, p):
    """The packed generators modulo p and the engine of that prime."""
    return (
        [{m: c % p for m, c in t.items()} for t in gens],
        groebner._ModularArith(p, codec),
    )


def _whole_chain(p, gens, codec, traces):
    """The basis modulo p of the packed generators under `codec`, from the
    whole-basis stage (0, None) of a chain seeded with them; `traces` keeps
    the stage's one trace under its node, 1."""
    bases = {0: [{m: c % p for m, c in t.items()} for t in gens]}
    return groebner._chain_mod_p(
        p, [codec, codec], [(0, None)], [0, 0], {1}, traces, bases
    )[1]


def _packed(blocks, gens):
    """A codec of `blocks` and exponent-tuple dicts packed under it."""
    codec = groebner._Codec(blocks)
    return codec, [{codec.pack(m): c for m, c in g.items()} for g in gens]


class _Forgetful(dict):
    """A divisor memo that stores nothing, so that every scan starts at
    the first reducer."""

    def __setitem__(self, key, value):
        pass


class _MemoEngine(groebner._ModularArith):
    """The modular engine, its signature runs scanning with `memo` as
    their divisor memo (the last field of `reduce`'s signature), and
    noting in `installed` how many reducers the current scan has."""

    def __init__(self, p, codec, memo):
        super().__init__(p, codec)
        self.memo = memo
        self.installed = None

    def reduce(self, target, reducers, steps, signature=None):
        if signature is not None:
            self.installed = len(reducers)
            signature = signature[:-1] + (self.memo,)
        return super().reduce(target, reducers, steps, signature)


def _recorded(trace):
    return trace.ngens, trace.entries, trace.kept, trace.final


def _bounded_run(gens, engine, trace, reductions=2_000):
    """`_full_run`, failing the test where the run makes more than
    `reductions` reductions instead of looping on."""
    run = groebner._core_buchberger(gens, engine, trace)
    for _ in range(reductions):
        try:
            next(run)
        except StopIteration as end:
            return end.value
    pytest.fail("the signature run did not end")


class TestSignatureRun:
    @settings(max_examples=150, deadline=None)
    @given(case=_signature_ideals(), p=st.sampled_from(_SIGNATURE_PRIMES))
    # Koszul signatures read the lead, the largest term by total degree;
    # under these codecs, which are not degree-compatible, the leading
    # term instead gives a signature below the syzygy's, and the syzygy
    # criterion then skips signatures that it must reduce
    @example(
        case=_packed(((0,), (1,), (2,)), [
            {(1, 1, 1): -5, (2, 0, 0): 5, (0, 0, 1): 4},
            {(1, 2, 0): 1, (2, 1, 0): 2},
        ]),
        p=3,
    )
    @example(
        case=_packed(((0,), (1, 2)), [
            {(0, 1, 0): 1, (1, 0, 2): -4, (0, 0, 0): -3},
            {(1, 1, 1): -1, (3, 0, 0): -1},
            {(0, 2, 1): 5},
        ]),
        p=groebner._agenda_prime(0),
    )
    def test_signature_run_equals_reference(self, case, p):
        # the reduced basis is unique: the signature run and the
        # Gebauer-Moller reference must return the same one
        codec, gens = case
        image = _modular_image(gens, codec, p)
        trace = groebner._Trace()
        assert _full_run(*image, trace) == (
            oracles.reference_buchberger(*image)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        case=_signature_ideals(),
        primes=st.permutations(_SIGNATURE_PRIMES).map(lambda ps: ps[:3]),
    )
    def test_checked_signature_replay_is_a_run_at_its_prime(
        self, case, primes
    ):
        # a replay of a whole record, zeros included, either leaves it or
        # returns the other prime's reduced basis, whatever its staircase;
        # it keeps every entry, so a replay at a third prime is whole too
        codec, gens = case
        recorded, *others = primes
        trace = groebner._Trace()
        _full_run(
            *_modular_image(gens, codec, recorded), trace
        )
        entries = list(trace.entries)
        for p in others:
            image = _modular_image(gens, codec, p)
            try:
                replayed = groebner._replay_buchberger(*image, trace)
            except groebner._TraceMismatch:
                continue
            assert replayed == oracles.reference_buchberger(*image)
            assert trace.entries == entries

    def test_replay_checks_the_lead(self):
        # x + 3y^3 + y^2 under ((x), (y)) has leading term x modulo 32003
        # and modulo 3, but its lead, the largest term by total degree,
        # moves from y^3 to y^2: the Koszul signatures of its element
        # would change, so the replay at 3 leaves the record
        ring = PolynomialRing(("x", "y"))
        x, y = ring.gens()
        codec = groebner._Codec(((0,), (1,)))
        gens = [groebner._to_engine(x + 3 * y**3 + y**2, codec)]
        trace = groebner._Trace()
        recorded = _full_run(
            *_modular_image(gens, codec, 32003), trace
        )
        image = _modular_image(gens, codec, 3)
        assert list(map(max, recorded)) == list(
            map(max, oracles.reference_buchberger(*image))
        ) == [codec.pack((1, 0))]
        with pytest.raises(groebner._TraceMismatch):
            groebner._replay_buchberger(*image, trace)

    def test_signature_memo_finds_a_divisor_installed_later(self):
        # 2y^3 is installed first; reducing 2 - x*y^2 next meets x*y^2,
        # which y^3 does not divide, so the memo keeps it past that one
        # reducer.  A later reduction meets x*y^2 again and reduces it by
        # x*y^2 - 2, installed after the memo's count was stored: the scan
        # starts past y^3 and still finds it
        p = 32003
        codec = groebner._Codec(((0, 1),))
        gens = [
            {codec.pack((0, 3)): 2},
            {codec.pack((1, 2)): p - 1, codec.pack((0, 0)): 2},
        ]
        first = {}  # key -> (its first count, the reducers then)

        class Watched(dict):
            def __setitem__(self, key, value):
                first.setdefault(key, (value, engine.installed))
                super().__setitem__(key, value)

        engine = _MemoEngine(p, codec, Watched())
        trace = groebner._Trace()
        basis = _bounded_run(gens, engine, trace)
        lts = [lt for _, lt, _, _ in trace.entries if lt is not None]
        xy2 = codec.pack((1, 2))
        assert first[xy2] == (1, 1) and lts.index(xy2) == 1
        later = [
            rt for _, _, (steps, _), _ in trace.entries[2:]
            for m, rt in zip(steps[::2], steps[1::2]) if m == xy2
        ]
        assert later and set(later) == {xy2}
        bare = groebner._Trace()
        assert _full_run(
            gens, _MemoEngine(p, codec, _Forgetful()), bare
        ) == basis
        assert _recorded(trace) == _recorded(bare)
        assert basis == oracles.reference_buchberger(
            gens, groebner._ModularArith(p, codec)
        )

    @settings(max_examples=150, deadline=None)
    @given(case=_signature_ideals(), p=st.sampled_from(_SIGNATURE_PRIMES))
    def test_signature_divisor_memo_changes_no_step(self, case, p):
        # the memo only skips reducers that cannot divide a term, so a run
        # records what a run without it records: every schedule, leading
        # key and lead, the kept elements and the final schedules
        codec, gens = case
        gens, engine = _modular_image(gens, codec, p)
        trace, bare = groebner._Trace(), groebner._Trace()
        basis = _bounded_run(gens, engine, trace)
        assert _full_run(
            gens, _MemoEngine(p, codec, _Forgetful()), bare
        ) == basis
        assert _recorded(trace) == _recorded(bare)

    def test_signature_images_stop_at_the_exponent_limit(self):
        # the J-pair of x^20000 + y and its reduction y has the image
        # x^40000, past the engine's limit of 2^15 - 1: a wrapped image
        # would be skipped or kept alike at every prime, so it raises the
        # engine's exponent error, which the CLI maps to exit 2
        ideal = Ideal(R2, [X**20000 + Y, X**20000])
        with pytest.raises(
            ValueError, match="exponent 40000 exceeds the engine limit"
        ):
            graded_basis(ideal)


@st.composite
def _top_reduction_cases(draw):
    """A random ideal of `_chain_ideals` or a random graph ideal of
    `_graph_shapes`, localized at times at one more random polynomial h
    (`with_rabinowitsch` prepends t), and two distinct primes of
    `_SIGNATURE_PRIMES`."""
    if draw(st.booleans()):
        ring, gens, _ = draw(_chain_ideals)
        ideal = Ideal(ring, [ring.polynomial(t) for t in gens])
    else:
        ideal, _ = draw(_graph_shapes())
    if draw(st.booleans()):
        h = draw(_localizers(ideal.ring.nvars))
        ideal = with_rabinowitsch(ideal, ideal.ring.polynomial(h))
    primes = draw(st.permutations(_SIGNATURE_PRIMES))
    return ideal, primes[:2]


# <5x^2 - 4y, 5x - 4, -3x^2 - 4x*y*u^2> under the stage codec of y: the
# top-reduced run installs y - 5/4 x^2, whose unreduced tail makes x^2 its
# lead, where the fully reduced element y - 4/5 has the lead y, so their
# Koszul signatures differ
_MOVED_LEAD = Ideal(R3, [
    5 * X3**2 - 4 * Y3, 5 * X3 - 4, -3 * X3**2 - 4 * X3 * Y3 * U3**2,
])

# <x^2y^2 + 1, 3x^2y^2 + x^2y + y + u>: modulo 3 the term 3x^2y^2 vanishes,
# so the second generator's leading key and sugar change and the run at 3
# queues the generators in another order than the run at 5.  The trace
# recorded at 5 still completes at 3, with the same leading keys, but under
# 5's module order, and the stage of x returns another basis than the run
# at 3: the replay must refuse the other seed signatures
_VANISHING_LEAD = Ideal(R3, [
    X3**2 * Y3**2 + 1, 3 * X3**2 * Y3**2 + X3**2 * Y3 + Y3 + U3,
])


def _free(basis, var_mask):
    """The elements of a packed basis free of the variable of `var_mask`,
    the ones that a one-variable stage hands on."""
    return [t for t in basis if not groebner._involves(t, var_mask)]


def _stage_runs(ideal, var, p):
    """The packed generators of `ideal` modulo p under the stage codec of
    `var`, the engine of that stage (its variable's mask set), its run's
    trace and basis, and the trace and basis of an engine without the
    mask."""
    n = ideal.ring.nvars
    codec = groebner._stage_codec(n, var)
    var_mask = groebner._SLOT_MASK << groebner._SLOT_BITS * (n - 1 - var)
    gens = [
        {m: c % p for m, c in groebner._to_engine(g, codec).items()}
        for g in ideal.generators
    ]
    engine = groebner._ModularArith(p, codec, var_mask)
    trace, whole = groebner._Trace(), groebner._Trace()
    masked = _bounded_run(gens, engine, trace)
    full = _bounded_run(gens, groebner._ModularArith(p, codec), whole)
    return gens, engine, trace, masked, whole, full


class TestTopReduction:
    @settings(max_examples=40, deadline=None)
    @given(case=_top_reduction_cases())
    @example(case=(_MOVED_LEAD, _SIGNATURE_PRIMES[3:5]))
    @example(case=(_VANISHING_LEAD, _SIGNATURE_PRIMES[:2]))
    def test_top_reduced_stage_keeps_the_free_elements(self, case):
        # a one-variable stage top-reduces inside its run and
        # inter-reduces only its elements free of its variable, the ones
        # it hands on.  Koszul signatures read each element's lead, which
        # unreduced tails may move under these orders, so the criteria may
        # skip other signatures than a fully reducing run's: the free
        # elements and every leading key must still be that run's.  The
        # masked trace replayed at the other prime, when it completes,
        # must return the masked run there
        ideal, primes = case
        for var in range(ideal.ring.nvars):
            runs = {p: _stage_runs(ideal, var, p) for p in primes}
            var_mask = runs[primes[0]][1].var_mask
            for _, _, _, masked, _, full in runs.values():
                assert _free(masked, var_mask) == _free(full, var_mask)
                assert list(map(max, masked)) == list(map(max, full))
            for recorded, p in (primes, primes[::-1]):
                gens, engine, _, masked, _, _ = runs[p]
                try:
                    replayed = groebner._replay_buchberger(
                        gens, engine, runs[recorded][2]
                    )
                except groebner._TraceMismatch:
                    continue
                assert replayed == masked

    def test_unreduced_tails_move_a_koszul_signature(self):
        # the example of the property above: the element with leading
        # term y has the lead x^2 in the top-reduced run and y in the
        # fully reduced one, and only the top-reduced run reduces a
        # signature to zero; it hands on the same elements free of y
        _, engine, trace, masked, whole, full = _stage_runs(
            _MOVED_LEAD, 1, _SIGNATURE_PRIMES[3]
        )
        pack = engine.codec.pack
        y, x2 = pack((0, 1, 0)), pack((2, 0, 0))
        leads = [
            [lead for _, lt, _, lead in t.entries if lt == y]
            for t in (trace, whole)
        ]
        assert leads == [[x2], [y]]
        assert len(_zeros(trace)) == 1 and not _zeros(whole)
        assert masked[:2] == full[:2] and x2 in masked[2]


class TestTraceReplay:
    def test_unit_ideal_is_recorded_and_replayed(self):
        # x = 2 gives y = 1/2 from xy - 1 and y = -4 from x^2 + y: the
        # constant is installed and recorded like any element, and a replay
        # at another prime reproduces it
        codec = groebner._Codec((range(2),))
        gens = [
            groebner._to_engine(g, codec)
            for g in (X * Y - 1, X**2 + Y, X - 2)
        ]
        one = [{codec.one_key: 1}]

        def image(index):
            p = groebner._agenda_prime(index)
            return (
                [{m: c % p for m, c in g.items()} for g in gens],
                groebner._ModularArith(p, codec),
            )

        trace = groebner._Trace()
        assert _full_run(*image(0), trace) == one
        installed = [lt for _, lt, _, _ in trace.entries if lt is not None]
        assert installed[-1] == codec.one_key
        assert len(trace.kept) == len(trace.final) == 1
        assert groebner._replay_buchberger(*image(1), trace) == one

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.sampled_from(
            [((0, 1, 2),), ((0,), (1,), (2,)), ((0,), (1, 2))]
        ),
        gens=st.lists(
            st.one_of(_small_polys, _shifted_polys), min_size=1, max_size=3
        ),
    )
    @example(
        # the staircases agree at 32003 and p0, but the schedules recorded
        # at 32003 leave a reducible term at p0: only the test of leftover
        # keys outside a schedule sends p0 back to a full run
        blocks=((0,), (1, 2)),
        gens=[
            R3.polynomial({k: Fraction(c) for k, c in terms.items()})
            for terms in (
                {(2, 1, 2): 31998, (0, 2, 1): -4, (0, 1, 0): 32005},
                {(2, 1, 0): 32009, (0, 2, 2): 5, (0, 1, 2): 32008,
                 (0, 0, 2): 32006},
                {(2, 1, 0): 32002, (1, 1, 2): 32005},
            )
        ],
    )
    def test_replay_equals_full_run(self, blocks, gens):
        # a trace recorded at one prime, which a completed replay at a
        # second prime leaves whole, replayed at a third with the chain's
        # fallback, gives that prime's own reduced basis, whatever the
        # staircases of the three
        codec = groebner._Codec(blocks)
        gens_int = [groebner._to_engine(g, codec) for g in gens]
        primes = [32003] + _chain_primes(3)

        def image(p):
            return (
                [{m: c % p for m, c in t.items()} for t in gens_int],
                groebner._ModularArith(p, codec),
            )

        traces = {}
        for p in primes[:3]:
            traces[p] = groebner._Trace()
            _full_run(*image(p), traces[p])
            entries = list(traces[p].entries)
            try:
                groebner._replay_buchberger(*image(primes[3]), traces[p])
            except groebner._TraceMismatch:
                continue
            assert traces[p].entries == entries
        for recorded, p in itertools.permutations(traces, 2):
            basis = _whole_chain(p, gens_int, codec, {1: traces[recorded]})
            assert basis == oracles.reference_buchberger(*image(p))

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.sampled_from(
            [((0, 1, 2),), ((0,), (1,), (2,)), ((0,), (1, 2))]
        ),
        primes=st.permutations(
            [3, 32003] + _chain_primes(2)
        ).map(lambda ps: ps[:2]),
        gens=st.lists(
            st.one_of(_small_polys, _shifted_polys), min_size=1, max_size=3
        ),
    )
    # modulo 3 the second generator reduces to zero, modulo 32003 to 3: a
    # checked replay that skipped recorded zeros would return <u>
    @example(blocks=((0, 1, 2),), primes=[3, 32003], gens=[U3, U3 + 3])
    def test_checked_replay_equals_full_run(self, blocks, primes, gens):
        # a checked replay of a trace recorded at one prime either raises
        # or is a whole signature run at the other, whatever the two
        # staircases: it returns exactly that prime's reduced basis
        codec = groebner._Codec(blocks)
        gens_int = [groebner._to_engine(g, codec) for g in gens]
        recorded, p = primes
        trace = groebner._Trace()
        _full_run(
            [{m: c % recorded for m, c in t.items()} for t in gens_int],
            groebner._ModularArith(recorded, codec),
            trace,
        )
        engine = groebner._ModularArith(p, codec)
        image = [{m: c % p for m, c in t.items()} for t in gens_int]
        full = oracles.reference_buchberger(image, engine)
        try:
            replayed = groebner._replay_buchberger(image, engine, trace)
        except groebner._TraceMismatch:
            return
        assert replayed == full

    def test_checked_replay_retries_reductions_to_zero(self):
        # modulo p0 the second generator of <x + y + u, x + (1 + p0)*y + u>
        # reduces to zero, so p0's trace installs x + y + u alone.  Modulo
        # p1 that reduction leaves p0*y: the checked replay, which retries
        # every recorded zero, refuses the trace, and the chain runs p1 in
        # full.  So does the vanished generator of <u^3, u^3 + 3> modulo 3
        p0, p1 = _chain_primes(2)
        codec = groebner._Codec((range(3),))
        gens = [
            groebner._to_engine(g, codec)
            for g in (X3 + Y3 + U3, X3 + (1 + p0) * Y3 + U3)
        ]
        guide = groebner._Trace()
        assert _full_run(
            [{m: c % p0 for m, c in t.items()} for t in gens],
            groebner._ModularArith(p0, codec),
            guide,
        ) == [groebner._to_engine(X3 + Y3 + U3, codec)]
        assert [lt for _, lt, _, _ in guide.entries][1] is None
        engine = groebner._ModularArith(p1, codec)
        image = [{m: c % p1 for m, c in t.items()} for t in gens]
        with pytest.raises(groebner._TraceMismatch):
            groebner._replay_buchberger(image, engine, guide)
        full = oracles.reference_buchberger(image, engine)
        assert len(full) == 2
        traces = {1: guide}
        basis = _whole_chain(p1, gens, codec, traces)
        assert basis == full
        assert traces[1].entries is not guide.entries

        cubes = [groebner._to_engine(g, codec) for g in (U3**3, U3**3 + 3)]
        vanished = groebner._Trace()
        _full_run(
            [{m: c % 3 for m, c in t.items()} for t in cubes],
            groebner._ModularArith(3, codec),
            vanished,
        )
        assert [lt for _, lt, _, _ in vanished.entries][1] is None
        with pytest.raises(groebner._TraceMismatch):
            groebner._replay_buchberger(
                [{m: c % 32003 for m, c in t.items()} for t in cubes],
                groebner._ModularArith(32003, codec),
                vanished,
            )

    def test_mismatch_falls_back_to_full_run(self):
        # modulo 3 the generator 3xy^2 + y^2 loses its leading term: its
        # trace installs it with leading monomial y^2, which no step at
        # 32003 reproduces, so that prime runs in full and records its own
        # trace
        codec, gens = _lost_leading_term()
        trace = groebner._Trace()
        _full_run(
            [{m: c % 3 for m, c in t.items()} for t in gens],
            groebner._ModularArith(3, codec),
            trace,
        )
        engine = groebner._ModularArith(32003, codec)
        image = [{m: c % 32003 for m, c in t.items()} for t in gens]
        with pytest.raises(groebner._TraceMismatch):
            groebner._replay_buchberger(image, engine, trace)
        full = oracles.reference_buchberger(image, engine)
        traces = {1: trace}
        basis = _whole_chain(32003, gens, codec, traces)
        assert basis == full
        assert traces[1].kept is not None

    def test_schedule_mismatch_falls_back_to_full_run(self):
        # with c = 1 + q, reducing xy by x + y cancels the y^2 term of
        # xy + c*y^2 + z^3 modulo q, so the schedule recorded there leaves
        # z^3 alone; modulo p a multiple of y^2 is left over, which y^2 + 1
        # reduces.  The leading key z^3 is the same at both primes: only
        # the test of leftover keys outside the record catches it
        q, p = 32003, groebner._agenda_prime(0)
        ring = PolynomialRing(("x", "y", "z"))
        x, y, z = ring.gens()
        codec = groebner._Codec((range(3),))
        gens = [
            groebner._to_engine(g, codec)
            for g in (x + y, y**2 + 1, x * y + (1 + q) * y**2 + z**3)
        ]
        traces = {}
        _whole_chain(q, gens, codec, traces)
        recorded = traces[1]
        engine = groebner._ModularArith(p, codec)
        image = [{m: c % p for m, c in t.items()} for t in gens]
        full = oracles.reference_buchberger(image, engine)
        assert [max(t) for t in full] == [
            max(t) for t in oracles.reference_buchberger(
                [{m: c % q for m, c in t.items()} for t in gens],
                groebner._ModularArith(q, codec),
            )
        ]
        with pytest.raises(groebner._TraceMismatch):
            groebner._replay_buchberger(image, engine, recorded)
        basis = _whole_chain(p, gens, codec, traces)
        assert basis == full
        assert traces[1] is not recorded and traces[1].kept is not None

    def test_failed_replay_without_zeros_records_anew(self):
        # modulo 3 the first generator of <15x + 3yu + 5, xu, yu> is the
        # constant 2, so the run installs it and stops, and its trace holds
        # no zero.  At 32003 the replay leaves it: that prime runs in full
        # and its fresh trace, zeros included, takes the old one's place,
        # and the replay at p0 completes and keeps it whole
        codec = groebner._Codec((range(3),))
        gens = [
            groebner._to_engine(g, codec)
            for g in (15 * X3 + 3 * Y3 * U3 + 5, X3 * U3, Y3 * U3)
        ]
        traces = {}
        _whole_chain(3, gens, codec, traces)
        bare = traces[1]
        assert _zeros(bare) == []
        for p in (32003, groebner._agenda_prime(0)):
            basis = _whole_chain(p, gens, codec, traces)
            assert basis == oracles.reference_buchberger(
                [{m: c % p for m, c in t.items()} for t in gens],
                groebner._ModularArith(p, codec),
            )
            if p == 32003:
                fresh = traces[1]
                entries = list(fresh.entries)
                assert fresh is not bare and _zeros(fresh)
        assert traces[1] is fresh and fresh.entries == entries

    def test_completed_replay_keeps_the_zeros(self, monkeypatch):
        # a trace recorded at 32003 holds a zero; its replay at p0
        # completes and keeps every entry, so the replay at p1 retries
        # that zero too: each prime replays every entry and every final
        # schedule of the trace, zeros included
        codec, gens = _lost_leading_term()
        traces = {}
        _whole_chain(32003, gens, codec, traces)
        trace = traces[1]
        entries = list(trace.entries)
        assert _zeros(trace)
        calls = Counter()
        zeros = Counter()
        replay = groebner._ModularArith.replay

        def counting_replay(self, target, schedule, tails, lt):
            out = replay(self, target, schedule, tails, lt)
            calls[self.p] += 1
            zeros[self.p] += not out
            return out

        monkeypatch.setattr(groebner._ModularArith, "replay", counting_replay)
        primes = _chain_primes(2)
        for p in primes:
            basis = _whole_chain(p, gens, codec, traces)
            assert basis == oracles.reference_buchberger(
                [{m: c % p for m, c in t.items()} for t in gens],
                groebner._ModularArith(p, codec),
            )
            assert traces[1] is trace and trace.entries == entries
        assert calls == {p: len(entries) + len(trace.final) for p in primes}
        assert zeros == {p: len(_zeros(trace)) for p in primes}

    def test_failed_checked_replay_replaces_the_trace(self):
        # a trace recorded at 3 is left by its replay at 32003, which runs
        # in full and puts its own trace, with a zero, in its place; the
        # replay of that one at p0 completes and keeps the zero
        codec, gens = _lost_leading_term()
        traces = {}
        _whole_chain(3, gens, codec, traces)
        unlucky = traces[1]
        _whole_chain(32003, gens, codec, traces)
        fresh = traces[1]
        entries = list(fresh.entries)
        assert fresh is not unlucky and _zeros(fresh)
        assert fresh.entries != unlucky.entries
        _whole_chain(groebner._agenda_prime(0), gens, codec, traces)
        assert traces[1] is fresh and fresh.entries == entries

    def test_replayed_stages_make_no_heap_or_divisor_search(
        self, monkeypatch
    ):
        # the fixed graph ideal's chain: after a full prime, the second
        # and third primes replay every stage's trace whole, zeros
        # included, and make no reduce call at all (the heap and the
        # divisor search live there), no J-pair and no divisor test, since
        # no term outside a schedule is left over.  The seed, node 0, has
        # no trace: it never runs
        graph = _fixed_graph_ideal()
        n = graph.ideal.ring.nvars
        certificate = groebner._certificate(graph.ideal)
        seed = certificate.codec
        stages = [(0, 2), (1, 1), (1, 0)]
        codecs = [seed] + [
            groebner._stage_codec(n, var)
            for _, var in stages
        ]
        masks = [0] + [
            groebner._SLOT_MASK << (groebner._SLOT_BITS * (n - 1 - var))
            for _, var in stages
        ]
        reduced = Counter()
        replayed = Counter()
        work = Counter()
        reduce = groebner._ModularArith.reduce
        replay = groebner._ModularArith.replay
        pdivides = groebner._pdivides
        jpairs = groebner._jpairs
        inside = [False]

        def counting_reduce(self, target, reducers, *rest):
            reduced[self.codec] += 1
            return reduce(self, target, reducers, *rest)

        def counting_replay(self, target, schedule, tails, lt):
            replayed[self.codec] += 1
            inside[0] = True
            try:
                return replay(self, target, schedule, tails, lt)
            finally:
                inside[0] = False

        def counting_pdivides(a, b, guard):
            if inside[0]:
                work["divisor tests"] += 1
            return pdivides(a, b, guard)

        def counting_jpairs(*args):
            work["pairs"] += 1
            return jpairs(*args)

        monkeypatch.setattr(groebner._ModularArith, "reduce", counting_reduce)
        monkeypatch.setattr(groebner._ModularArith, "replay", counting_replay)
        monkeypatch.setattr(groebner, "_pdivides", counting_pdivides)
        monkeypatch.setattr(groebner, "_jpairs", counting_jpairs)
        traces = {}
        for index, p in enumerate(_chain_primes(3)):
            reduced.clear()
            replayed.clear()
            work.clear()
            recorded = dict(traces)
            bases = {
                0: [{m: c % p for m, c in t.items()}
                    for t in certificate.basis()]
            }
            groebner._chain_mod_p(
                p, codecs, stages, masks, {1, 2, 3}, traces, bases
            )
            if index:
                assert traces == recorded
                assert reduced == {}
                assert set(replayed) == set(codecs[1:])
                assert work == {}
        assert sorted(traces) == [1, 2, 3]
        assert any(map(_zeros, traces.values()))

    @pytest.mark.parametrize("cap", [groebner._EXACT_CHECK_BIT_CAP, 0])
    def test_seed_runs_once_per_prime(
        self, monkeypatch, hold_reconstruction, cap
    ):
        # a whole basis is a stage like any other: the graded basis of the
        # generators runs in full at the first prime and replays at every
        # later one, whether the certificate's basis is proved or above the
        # cap.  An elimination chain never runs its seed, the certificate's
        # basis: its root stage reduces it under its own block order, and
        # no graded basis is computed.  Written as
        # <x*y - 1, u - x^2 - 3*y> the ideal is a graph ideal, whose
        # certificate's basis is a Groebner basis under its block order,
        # not the graded one; with u in both generators it is certified by
        # its homogenized graded basis, a Groebner basis under the graded
        # order.  Each chain is held to two primes or more
        g = U3 - X3**2 - 3 * Y3
        seed = ((0, 1, 2),)
        runs = {}
        for name in ("_core_buchberger", "_replay_buchberger"):

            def watched(gens, engine, trace, inner=getattr(groebner, name),
                        name=name):
                if engine.codec.blocks == seed:
                    runs.setdefault(engine.p, []).append(name)
                return inner(gens, engine, trace)

            monkeypatch.setattr(groebner, name, watched)
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", cap)
        hold_reconstruction(1)
        drop = frozenset({1})
        for value, gens in ((None, [X3 * Y3 - 1 + X3 * g, g]),
                            (g, [X3 * Y3 - 1, g])):
            ideal = Ideal(R3, gens)
            assert groebner._certificate(ideal).value is value
            groebner._certificate(ideal).basis()
            runs.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", groebner.UncertifiedResult)
                lifted = groebner._eliminations(ideal, [drop])
                assert runs == {}
                assert graded_basis(ideal)
            assert [str(q) for q in lifted[drop]] == ["x^3 - x*u + 3"]
            first, *later = runs.values()
            assert first == ["_core_buchberger"]
            assert later
            assert all(r == ["_replay_buchberger"] for r in later)

    @pytest.mark.parametrize("cap", [groebner._EXACT_CHECK_BIT_CAP, 0])
    def test_one_prime_is_not_trusted(self, monkeypatch, cap):
        # modulo p0 both generators are x + y + u, whose y-elimination is
        # empty; a trace of p0 without its zero would skip the second
        # generator at later primes and repeat that empty answer, which a
        # membership certificate cannot refute.  The exact basis check of
        # the certificate's chain unmasks p0; above the cap only the next
        # prime's replay, which retries the zero and fails, does
        p0 = groebner._agenda_prime(0)
        ideal = Ideal(R3, [X3 + Y3 + U3, X3 + (1 + p0) * Y3 + U3])
        drop = frozenset({1})
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", cap)
        if cap:
            lifted = groebner._eliminations(ideal, [drop])
        else:
            with pytest.warns(groebner.UncertifiedResult):
                lifted = groebner._eliminations(ideal, [drop])
        assert lifted[drop] == [X3 + U3]

    def test_failed_check_drops_the_trusted_trace(self):
        # a chain's first two primes agree on the basis x + y + u, so the
        # replay at p1 completes; the exact check refutes the basis, and
        # the replay at p2 retries the zero, which fails there, so p2 runs
        # in full and records anew
        p0, p1 = _chain_primes(2)
        ideal = Ideal(R3, [X3 + Y3 + U3, X3 + (1 + p0 * p1) * Y3 + U3])
        assert graded_basis(ideal) == [Y3, X3 + U3]

    def test_unlucky_seed_primes_are_skipped(self):
        # modulo p0 and p1 the generators span <x + y + u>, with no relation
        # free of y; a chain seeded with them agreed on that empty
        # elimination at both primes, and the empty set is trivially
        # certified.  The chain starts from the certificate's basis y,
        # x + u instead, which keeps the relation modulo every prime
        p0, p1 = _chain_primes(2)
        ideal = Ideal(R3, [X3 + Y3 + U3, X3 + (1 + p0 * p1) * Y3 + U3])
        assert eliminate(ideal, {0, 2}) == [X3 + U3]

    def test_stages_start_from_the_certificate_basis(self, monkeypatch):
        # the ideal above: p0, where its generators collapse, seeds the
        # staged chain with both elements of the certificate's basis, and
        # lifts and proves x + u, so the prime is not wasted
        p0, p1 = _chain_primes(2)
        ideal = Ideal(R3, [X3 + Y3 + U3, X3 + (1 + p0 * p1) * Y3 + U3])
        seeds = {}
        chain = groebner._chain_mod_p

        def recording_chain(p, codecs, stages, masks, needed, traces, bases):
            seeds[p] = len(bases[0])
            return chain(p, codecs, stages, masks, needed, traces, bases)

        groebner._certificate(ideal).basis()
        monkeypatch.setattr(groebner, "_chain_mod_p", recording_chain)
        assert eliminate(ideal, {0, 2}) == [X3 + U3]
        assert seeds == {p0: 2}

    def test_later_primes_only_replay(self, monkeypatch, hold_reconstruction):
        # the chain of nonproperness_values on the fixed graph ideal and the
        # chain of its certificate (the curve's homogenized graded basis,
        # in as many variables), each held to six primes before it lifts
        # and proves its outputs: only the first prime builds J-pairs;
        # every later one replays, stage by stage, every reduction the
        # first made, zeros included, and reduces nothing.  The graph
        # chain's root stages race while its tree is planned, ahead of the
        # first prime's other stages, and count towards that prime
        graph = _fixed_graph_ideal()
        chains = []  # (a chain's codec list, its work per prime)
        planned = []  # the work of the last chain's root races
        current = [None]
        plan = groebner._plan
        chain = groebner._chain_mod_p
        jpairs = groebner._jpairs
        reduce = groebner._ModularArith.reduce
        replay = groebner._ModularArith.replay
        core = groebner._core_buchberger
        replay_run = groebner._replay_buchberger
        # a stage keeps one trace from its first prime to its last, and
        # each of its runs has its own engine; stages that drop the same
        # variable share a codec, so the work is keyed by the trace
        stage = {}  # engine -> the trace of the stage it runs

        def tracked_plan(drops, race):
            # each chain plans its tree at its first prime, just before
            # that prime runs the rest of it
            current[0] = Counter()
            planned.append(current[0])
            try:
                return plan(drops, race)
            finally:
                current[0] = None

        def tracked_chain(p, codecs, *rest):
            # a chain keeps one codec list from its first prime to its last
            work = next((w for c, w in chains if c is codecs), None)
            if work is None:
                chains.append((codecs, {p: planned.pop()}))
                work = chains[-1][1]
            current[0] = work.setdefault(p, Counter())
            try:
                return chain(p, codecs, *rest)
            finally:
                current[0] = None

        def counting_jpairs(*args):
            if current[0] is not None:
                current[0]["updates"] += 1
            return jpairs(*args)

        def tracked_core(gens, engine, trace):
            stage[engine] = trace
            return core(gens, engine, trace)

        def tracked_replay_run(gens, engine, trace):
            stage[engine] = trace
            return replay_run(gens, engine, trace)

        def count(kind, engine, out):
            if current[0] is not None:
                w = current[0]
                w[kind, stage[engine]] += 1
                if not out:
                    w["zeros"] += 1
                    w["zeros", stage[engine]] += 1
            return out

        def counting_reduce(self, target, reducers, *rest):
            return count(
                "reduced", self, reduce(self, target, reducers, *rest)
            )

        def counting_replay(self, target, schedule, tails, lt):
            return count(
                "replayed", self, replay(self, target, schedule, tails, lt)
            )

        monkeypatch.setattr(groebner, "_plan", tracked_plan)
        monkeypatch.setattr(groebner, "_chain_mod_p", tracked_chain)
        monkeypatch.setattr(groebner, "_jpairs", counting_jpairs)
        monkeypatch.setattr(groebner._ModularArith, "reduce", counting_reduce)
        monkeypatch.setattr(groebner._ModularArith, "replay", counting_replay)
        monkeypatch.setattr(groebner, "_core_buchberger", tracked_core)
        monkeypatch.setattr(groebner, "_replay_buchberger", tracked_replay_run)
        hold_reconstruction(5)
        drops = [
            frozenset(j for j in range(3) if j != i) for i in range(3)
        ]
        groebner._eliminations(graph.ideal, drops)
        assert len(chains) == 2
        for _, work in chains:
            assert len(work) >= 6
            first, *later = work.values()
            assert first["updates"]
            for w in later:
                replayed = [key[1] for key in w if key[0] == "replayed"]
                assert replayed and not w["updates"]
                for trace in replayed:
                    assert w["reduced", trace] == 0
                    assert w["replayed", trace] == first["reduced", trace]
                    assert w["zeros", trace] == first["zeros", trace]
        # the curve's basis reduces nothing to zero; the graph chain's
        # replays retry every zero of its first prime
        _, graph_work = chains[1]
        assert all(w["zeros"] for w in list(graph_work.values())[1:])


class TestCertificate:
    def test_unit_votes_of_two_agenda_primes_overruled(self):
        # N = 1 + p0*p1 is 1 modulo the first two primes of a chain, the
        # narrow agenda's first and the wide agenda's first, where the
        # ideal becomes <x + y + 1, x + y + 2>, the unit ideal; over the
        # rationals it is the point y = -1/(p0*p1), x = -1 - y
        p0, p1 = _chain_primes(2)
        assert (p0, p1) == (
            (2**60 - 85) * 2**60 + 1, (2**120 - 55) * 2**120 + 1
        )
        big = 1 + p0 * p1
        ideal = Ideal(R2, [X + Y + 1, X + big * Y + 2])
        assert affine_dimension(ideal) == 0
        gb = buchberger(ideal)
        assert not gb.contains_one()
        assert gb.elements == (
            (big - 1) * Y + 1,
            (big - 1) * X + big - 2,
        )
        assert not graded_basis(ideal)[0].is_constant()
        certificate = groebner._Certificate(ideal)
        assert certificate.covers([{certificate.codec.one_key: 1}]) is False

    def test_dimension_of_a_line_hidden_by_two_agenda_primes(self):
        # modulo the first two primes of a chain the first factor is the
        # unit ideal, so the product looks like the origin <x, y, w>; over
        # the rationals the first factor cuts out a line parallel to the
        # w-axis
        p0, p1 = _chain_primes(2)
        ring = PolynomialRing(("x", "y", "w"))
        x, y, w = (ring.variable(v) for v in ring.variables)
        big = 1 + p0 * p1
        ideal = Ideal(
            ring,
            [a * b for a in (x + y + 1, x + big * y + 2) for b in (x, y, w)],
        )
        assert affine_dimension(ideal) == 1

    def test_whole_basis_of_a_line_hidden_by_two_agenda_primes(
        self, monkeypatch
    ):
        # the ideal above: modulo p0 and p1 both whole bases read [w, y, x],
        # the origin, which proves only that the ideal lies in <w, y, x>.
        # Every element must also lie in the ideal, so vanish on the line
        # x = -1 - y, y = -1/(p0*p1), w free
        p0, p1 = _chain_primes(2)
        ring = PolynomialRing(("x", "y", "w"))
        x, y, w = ring.gens()
        big = 1 + p0 * p1
        ideal = Ideal(
            ring,
            [a * b for a in (x + y + 1, x + big * y + 2) for b in (x, y, w)],
        )
        y0 = Fraction(-1, p0 * p1)
        line = [(-1 - y0, y0, Fraction(t)) for t in range(3)]

        def value(p, point):
            return sum(
                c * math.prod(v**e for v, e in zip(point, m))
                for m, c in p.terms.items()
            )

        for basis in (buchberger(ideal).elements, graded_basis(ideal)):
            assert all(value(p, pt) == 0 for p in basis for pt in line)
        # above the cap nothing proves the converse, and that is warned
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 0)
        fresh = Ideal(ring, ideal.generators)
        with pytest.warns(
            groebner.UncertifiedResult,
            match=r"the basis in \(x, y, w\) rests on fresh-prime",
        ):
            graded_basis(fresh)

    def test_rejects_the_unit_candidate_of_a_proper_ideal(self):
        # 3y - 1 lies in the ideal: it is the unit ideal modulo 3, yet
        # y = 1/3, x^2 = -5/3 is a point over the rationals
        ideal = Ideal(R2, [X**2 + 2 * Y + 1, X**2 - Y + 2])
        codec = groebner._Codec((range(2),))
        gens = [groebner._to_engine(g, codec) for g in ideal.generators]
        one = {codec.one_key: 1}
        assert _full_run(
            [{m: c % 3 for m, c in t.items()} for t in gens],
            groebner._ModularArith(3, codec),
            groebner._Trace(),
        ) == [one]
        # the exact basis check proves only that the ideal lies in <1>
        assert groebner._exact_basis_check(gens, [one], codec)
        certificate = groebner._Certificate(ideal)
        assert certificate.member(one) is False
        assert certificate.covers([one]) is False
        assert affine_dimension(ideal) == 0

    def test_perturbed_relation_fails(self):
        # the (x, u) relation of x*y = 1, u = x^2 + 3*y lies in the ideal;
        # moving any one of its coefficients by one takes it out
        ideal = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2 - 3 * Y3])
        lifted = groebner._eliminations(ideal, [frozenset({1})])
        certificate = groebner._certificate(ideal)
        (relation,) = lifted[frozenset({1})]
        assert relation.support_variables() == {0, 2}
        assert certificate.contains(relation) is True
        for mono, c in relation.terms.items():
            terms = dict(relation.terms)
            terms[mono] = c + 1
            wrong = R3.polynomial(terms)
            assert certificate.contains(wrong) is False

    def test_verdicts_on_the_graph_ideal(self, monkeypatch):
        """The certificate of the graph ideal of x + x^2*y on (x, y, u) at
        seed 0 and bound 9999, as a report builds it: every chain output
        and every generator is a member, each with its leading coefficient
        moved by one is not, and the Fraction oracle on the certificate's
        basis, under its block order (z first, then the curve's graded
        order), agrees with every verdict."""
        from polarvalues import nonproper
        from polarvalues.detector import run_super_polar

        chains = []
        eliminations = nonproper._eliminations

        def recording(ideal, drops):
            chains.append((ideal, eliminations(ideal, drops)))
            return chains[-1][1]

        monkeypatch.setattr(nonproper, "_eliminations", recording)
        run_super_polar(X3 + X3**2 * Y3, seed=0, runs=1, coeff_bound=9999)
        ((ideal, lifted),) = chains
        certificate = groebner._certificate(ideal)
        ring = ideal.ring
        basis = [
            groebner._from_engine(t, certificate.codec, ring)
            for t in certificate.basis()
        ]
        members = [p for elems in lifted.values() for p in elems]
        assert len(members) == 3
        members += ideal.generators
        assert certificate.codec.blocks == ((3,), (0, 1, 2))
        for p in members:
            wrong = dict(p.terms)
            wrong[max(wrong, key=oracles.value_block_key)] += 1
            for q, verdict in ((p, True), (ring.polynomial(wrong), False)):
                assert certificate.contains(q) is verdict
                remainder = normal_form(q, basis, oracles.value_block_key)
                assert remainder.is_zero() is verdict

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lifted_eliminations_are_members(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, R3, max_deg=2) for _ in range(rng.randint(1, 3))]
        ideal = Ideal(R3, gens)
        drops = [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]
        lifted = groebner._eliminations(ideal, drops)
        certificate = groebner._certificate(ideal)
        for drop in drops:
            for p in lifted[drop]:
                assert certificate.contains(p) is True
                assert not p.support_variables() & drop
            keep = set(range(3)) - drop
            assert lifted[drop] == eliminate(ideal, keep)
        for g in ideal.generators:
            assert certificate.contains(g) is True

    def test_above_the_cap_warns(self, monkeypatch):
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 0)
        ideal = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2 - 3 * Y3])
        with pytest.warns(
            groebner.UncertifiedResult,
            match=r"the elimination onto \(x, u\) rests on fresh-prime",
        ):
            out = eliminate(ideal, {0, 2})
        assert [str(p) for p in out] == ["x^3 - x*u + 3"]
        with pytest.warns(
            groebner.UncertifiedResult, match="the unit ideal rests on two"
        ):
            assert affine_dimension(Ideal(R2, [X * Y - 1, X])) == -1

    @pytest.mark.parametrize(
        "gens, dim", [([X * Y - 1], 1), ([X**2 + Y**2 - 1, X - Y], 0)]
    )
    def test_dimension_above_the_cap_warns(self, monkeypatch, gens, dim):
        # a dimension of 0 or more read off a certificate above the cap
        # rests on fresh-prime agreement as much as an empty zero set does
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 0)
        with pytest.warns(
            groebner.UncertifiedResult,
            match=r"a dimension of %d rests on fresh-prime agreement; its "
            r"certificate in \(x, y\)" % dim,
        ):
            assert affine_dimension(Ideal(R2, gens)) == dim

    @settings(max_examples=25, deadline=None)
    @given(case=_chain_ideals)
    def test_inhomogeneous_whole_bases_lift_from_the_certificate(self, case):
        # a whole basis of inhomogeneous generators is the certificate's
        # elimination of nothing, proved by the certificate: the only
        # basis checks that `buchberger` and `graded_basis` run are the
        # certificate's own, on its homogenized generators (none when they
        # are one polynomial), and both bases reduce modulo a prime that
        # no chain uses to the reduced bases computed there
        ring, gens, _ = case
        ideal = Ideal(ring, [ring.polynomial(t) for t in gens])
        certificate = groebner._certificate(ideal)
        assume(len(ideal.generators) > 1 and not certificate.homogeneous)
        checked = []
        check = groebner._exact_basis_check

        def recording(gens, candidate_int, codec):
            checked.append(gens)
            return check(gens, candidate_int, codec)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groebner, "_exact_basis_check", recording)
            lex = buchberger(ideal)
            graded = graded_basis(ideal)
        # a graph ideal's certificate homogenizes its base, free of the
        # value variable
        n = ring.nvars
        k = n - (certificate.value is not None)
        sub = PolynomialRing(ring.variables[:k])
        homogenized = _homogenized(Ideal(sub, [
            sub.polynomial({m[:k]: c for m, c in g.terms.items()})
            for g in ideal.generators if g is not certificate.value
        ]))
        codec = groebner._Codec((range(k + 1),))
        packed = [
            groebner._to_engine(g, codec) for g in homogenized.generators
        ]
        assert all(gens == packed for gens in checked)
        assert checked or len(packed) == 1
        q = _REFERENCE_PRIME
        for blocks, basis in (
            ([[j] for j in range(n)], lex.elements), ([range(n)], graded)
        ):
            ref_codec, expected = _reference_basis(ideal, blocks)
            got = [groebner._to_engine(e, ref_codec) for e in basis]
            assert oracles.candidate_mod_p(got, q) == expected

    def test_whole_basis_above_the_cap_warns(self, monkeypatch):
        # the lex basis (69 bits) of inhomogeneous generators is the
        # certificate's elimination of nothing, proved by the certificate
        # (22 bits) alone: at a cap of 30 bits it is proved, its own size
        # notwithstanding, and nothing is warned.  At a cap of 20 bits the
        # certificate proves nothing, and the basis is warned through it
        ring = PolynomialRing(("x", "z"))
        x, z = ring.gens()
        gens = [x**3 + 5 * z**2 - 11 * x, x**2 * z - 13 * z + 2]
        exact = buchberger(Ideal(ring, gens))
        assert groebner._exact_size([
            groebner._to_engine(g, groebner._Codec(((0,), (1,))))
            for g in exact.elements
        ]) == 69
        for cap, expected in ((30, []), (20, [
            "the basis in (x, z) rests on fresh-prime agreement; its "
            "certificate in (x, z), a graded basis of 22 bits, is above "
            "the exact-check cap of 20 bits"
        ])):
            monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", cap)
            ideal = Ideal(ring, gens)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", groebner.UncertifiedResult)
                gb = buchberger(ideal)
            assert [str(w.message) for w in caught] == expected
            assert groebner._certificate(ideal).bits == 22
            assert gb == exact

    def test_homogeneous_basis_above_the_cap_warns(self, monkeypatch):
        # on homogeneous generators the basis check alone proves a whole
        # basis; above the cap (30 bits against its 81) it is skipped, so
        # the basis rests on fresh-prime agreement and must say so
        ring = PolynomialRing(("x", "y", "z"))
        x, y, z = ring.gens()
        ideal = Ideal(ring, [
            x**2 - 7 * y * z + 13 * z**2, x * y - 11 * z**2,
            y**3 - 5 * x * z**2,
        ])
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", groebner.UncertifiedResult)
            gb = graded_basis(ideal)
        messages = [str(w.message) for w in caught]
        assert messages == [
            "the basis in (x, y, z) rests on fresh-prime agreement; it has "
            "81 bits, above the exact-check cap of 30 bits"
        ]
        monkeypatch.undo()
        assert gb == graded_basis(Ideal(ring, ideal.generators))
        assert len(gb) == 7

    def test_certificate_above_the_cap_warns_once(self, monkeypatch):
        # the certificate's own basis is homogeneous and above the cap; its
        # users already warn that it is not exact, so building it warns
        # nothing more
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 0)
        ideal = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2 - 3 * Y3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", groebner.UncertifiedResult)
            eliminate(ideal, {0, 2})
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert messages[0].startswith(
            "the elimination onto (x, u) rests on fresh-prime agreement; "
            "its certificate in (x, y, u),"
        )


@st.composite
def _graph_shapes(draw):
    """A graph ideal J = B + <a*z + F> on two or three curve variables and
    z, and J again with its shape hidden: one generator b of B replaced by
    b + (a*z + F)*x, so that z occurs in two generators.  Both generate
    the same ideal."""
    n = draw(st.integers(min_value=2, max_value=3))
    ring = PolynomialRing(tuple("xyu"[:n]) + ("z",))
    monomials = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    coefficients = st.integers(min_value=-5, max_value=5).filter(bool)

    def polynomial(terms):
        return ring.polynomial({m + (0,): c for m, c in terms.items()})

    polys = st.dictionaries(monomials, coefficients, min_size=1, max_size=3)
    base = [polynomial(t) for t in draw(st.lists(polys, min_size=1,
                                                 max_size=2))]
    a = draw(coefficients)
    value = polynomial(draw(polys)) + a * ring.variable("z")
    k = draw(st.integers(min_value=0, max_value=len(base) - 1))
    hidden = list(base)
    hidden[k] = base[k] + value * ring.variable("x")
    return Ideal(ring, base + [value]), Ideal(ring, hidden + [value])


class TestGraphCertificate:
    """A graph ideal's certificate is its base's graded basis plus the
    value generator, under the block order ((z), rest); the homogenized
    certificate of the same ideal, written so that z occurs in two
    generators, is the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(_graph_shapes())
    def test_graph_certificate_agrees_with_the_homogenized_one(self, case):
        graph, hidden = case
        ring = graph.ring
        n = ring.nvars
        with_shape = groebner._certificate(graph)
        without = groebner._certificate(hidden)
        value = graph.generators[-1]
        assert with_shape.value is value and without.value is None
        assert with_shape.codec.blocks == ((n - 1,), tuple(range(n - 1)))
        codec = with_shape.codec
        assert groebner._exact_basis_check(
            [groebner._to_engine(g, codec) for g in graph.generators],
            with_shape.basis(), codec,
        )
        assert affine_dimension(graph) == affine_dimension(hidden)
        # each curve variable's plane with z, and the value line
        drops = [
            frozenset(j for j in range(n - 1) if j != i)
            for i in range(n - 1)
        ] + [frozenset(range(n - 1))]
        lifted = groebner._eliminations(graph, drops)
        assert lifted == groebner._eliminations(hidden, drops)
        members = [p for elems in lifted.values() for p in elems]
        members += graph.generators + hidden.generators
        for p in members:
            wrong = dict(p.terms)
            wrong[max(wrong, key=oracles.graded_key)] += 1
            assert with_shape.contains(p) is without.contains(p) is True
            wrong = ring.polynomial(wrong)
            assert with_shape.contains(wrong) is without.contains(wrong)

    def test_lucky_primes_keep_the_curve_relation(self, monkeypatch):
        """The lucky-prime ideal of `test_unlucky_seed_primes_are_skipped`
        lifted into a graph: modulo p0 and p1 the curve's generators
        x + y + u and x + N*y + u, N = 1 + p0*p1, coincide, so the raw
        generators with x + 2y - z would make the (x, z) elimination empty
        there.  The seed is the curve's basis
        {y, x + u} plus the value generator, which keeps the relation
        modulo p0, and the chain proves it at p0 alone.  The stage orders
        z before x, so the relation comes out as -x + z."""
        p0, p1 = _chain_primes(2)
        ring = PolynomialRing(("x", "y", "u", "z"))
        x, y, u, z = ring.gens()
        graph = Ideal(ring, [
            x + y + u, x + (1 + p0 * p1) * y + u, x + 2 * y - z,
        ])
        certificate = groebner._certificate(graph)
        assert certificate.value is graph.generators[-1]
        certificate.basis()
        primes = set()
        chain = groebner._chain_mod_p

        def recording(p, *args):
            primes.add(p)
            return chain(p, *args)

        monkeypatch.setattr(groebner, "_chain_mod_p", recording)
        drop = frozenset({1, 2})
        assert groebner._eliminations(graph, [drop]) == {drop: [-x + z]}
        assert primes == {p0}


def _drop_sets(n):
    """One to three distinct drop sets, nonempty proper subsets of the n
    variables."""
    return st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1,
                max_size=n - 1).map(frozenset),
        min_size=1,
        max_size=3,
        unique=True,
    )


@st.composite
def _reference_cases(draw):
    """A random ideal of `_chain_ideals`, or a graph ideal of
    `_graph_shapes` with random drop sets, either homogenized at times,
    the empty set added at times, and how many agenda primes every lift
    is held back for."""
    if draw(st.booleans()):
        ring, gens, drops = draw(_chain_ideals)
        ideal = Ideal(ring, [ring.polynomial(t) for t in gens])
    else:
        ideal, _ = draw(_graph_shapes())
        drops = draw(_drop_sets(ideal.ring.nvars))
    if draw(st.booleans()):
        ideal = _homogenized(ideal)
    if draw(st.booleans()):
        drops = drops + [frozenset()]
    return ideal, drops, draw(st.integers(min_value=1, max_value=2))


class TestChainReference:
    @settings(max_examples=25, deadline=None)
    @given(case=_reference_cases())
    def test_chain_outputs_equal_the_reference(self, case):
        # at every prime, full or replayed, each stage's basis is checked
        # against the reduced basis, under the stage's order, of its input
        # modulo p (the seed for a root stage, else its parent's elements
        # free of the parent's variable) that the Gebauer-Moller reference
        # of tests/oracles.py computes.  A one-variable stage hands on
        # only its elements free of its variable, and only those are
        # inter-reduced: they must equal the reference's, every leading
        # key must be the reference's, and every element must reduce to
        # zero by the reference, so it lies in the stage's ideal.  A stage
        # that drops nothing must equal the reference whole.  By induction
        # down the tree each output is the reduced basis of <seed mod p>
        # meet F_p[S].  The lifts are held back, so every chain runs two
        # primes or more and replays its stages.  Both kinds of seed take
        # the test: the generators, whose whole basis a homogeneous ideal
        # lifts, and the certificate's basis, from which every elimination
        # starts and which an inhomogeneous ideal's whole basis eliminates
        # nothing of
        ideal, drops, held = case
        n = ideal.ring.nvars
        certificate = groebner._Certificate(ideal)
        certificate.basis()
        graded = groebner._Codec((range(n),))
        checked = Counter()
        chain = groebner._chain_mod_p
        modulus = math.prod(_chain_primes(held))
        reconstruct = groebner._CrtState.reconstruct

        def checking(p, codecs, stages, masks, needed, traces, bases):
            chain(p, codecs, stages, masks, needed, traces, bases)
            for node in sorted(set(bases) - {0}):
                parent, _ = stages[node - 1]
                codec = codecs[node]
                mask = codecs[parent].mask
                elems = [
                    {codec.key_from_plain(m & mask): c for m, c in t.items()}
                    for t in bases[parent]
                    if not groebner._involves(t, masks[parent])
                ]
                engine = groebner._ModularArith(p, codec)
                reference = oracles.reference_buchberger(elems, engine)
                var_mask = masks[node]
                checked[p] += 1
                if not var_mask:
                    assert bases[node] == reference
                    continue
                assert _free(bases[node], var_mask) == _free(
                    reference, var_mask
                )
                assert [max(t) for t in bases[node]] == [
                    max(t) for t in reference
                ]
                reducers = [engine.reducer_entry(t) for t in reference]
                assert all(
                    not engine.reduce(t, reducers, []) for t in bases[node]
                )
            return bases

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groebner, "_chain_mod_p", checking)
            patch.setattr(
                groebner._CrtState, "reconstruct",
                lambda state: None if state.modulus <= modulus
                else reconstruct(state),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", groebner.UncertifiedResult)
                whole = groebner._modular_chain(certificate, graded)
                lifted = groebner._modular_chain(certificate, graded, drops)
        assert set(whole) == {frozenset()} and set(lifted) == set(drops)
        assert len(checked) > held


@st.composite
def _width_cases(draw):
    """A random ideal of `_chain_ideals` with its drop sets, or a random
    graph ideal of `_graph_shapes` with random drop sets, either localized
    at times at one more random polynomial h (`with_rabinowitsch` prepends
    t, which the drop sets then drop too, or at times keep), and for how
    many primes of a chain every lift is held back."""
    if draw(st.booleans()):
        ring, gens, drops = draw(_chain_ideals)
        ideal = Ideal(ring, [ring.polynomial(t) for t in gens])
    else:
        ideal, _ = draw(_graph_shapes())
        drops = draw(_drop_sets(ideal.ring.nvars))
    if draw(st.booleans()):
        h = draw(_localizers(ideal.ring.nvars))
        ideal = with_rabinowitsch(ideal, ideal.ring.polynomial(h))
        t = frozenset({0}) if draw(st.booleans()) else frozenset()
        drops = [t | {j + 1 for j in d} for d in drops]
    return ideal, drops, draw(st.integers(min_value=1, max_value=2))


class TestPrimeWidth:
    @settings(max_examples=20, deadline=None)
    @given(case=_width_cases())
    def test_prime_width_changes_no_output(self, case):
        # a chain takes every prime after its first from the wide agenda;
        # an agenda of 120-bit primes alone must lift the same
        # eliminations and the same whole basis, each the unique reduced
        # basis of its ideal.  Every lift is held until its modulus passes
        # the first `held` primes of a chain, so each chain reaches its
        # later primes, more of them under the narrow agenda
        ideal, drops, held = case
        graded = groebner._Codec((range(ideal.ring.nvars),))
        modulus = math.prod(_chain_primes(held))
        agenda = groebner._agenda_prime
        reconstruct = groebner._CrtState.reconstruct
        chain = groebner._chain_mod_p
        primes = set()

        def recording(p, *args):
            primes.add(p)
            return chain(p, *args)

        def outputs():
            # a new Ideal builds its certificate afresh, at these primes
            fresh = Ideal(ideal.ring, ideal.generators)
            primes.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", groebner.UncertifiedResult)
                lifted = groebner._eliminations(fresh, drops)
                whole = groebner._modular_chain(
                    groebner._certificate(fresh), graded
                )
            return lifted, whole, max(primes).bit_length()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groebner, "_chain_mod_p", recording)
            patch.setattr(
                groebner._CrtState, "reconstruct",
                lambda state: None if state.modulus <= modulus
                else reconstruct(state),
            )
            *wide, wide_bits = outputs()
            # the narrow agenda's even primes stand for its own, its odd
            # ones for the wide agenda's, so no chain meets a prime twice
            patch.setattr(
                groebner, "_agenda_prime",
                lambda index, wide=False: agenda(2 * index + wide),
            )
            *narrow, narrow_bits = outputs()
        assert (wide_bits, narrow_bits) == (240, 120)
        assert wide == narrow


class TestRabinowitsch:
    def test_fresh_variable_prepended(self):
        loc = with_rabinowitsch(Ideal(R2, [X * Y]), X)
        assert loc.ring.variables[0] == "t"
        assert loc.ring.nvars == 3
        assert len(loc.generators) == 2

    def test_localization_removes_hypersurface(self):
        # V(xy) minus V(x) is the x-axis complement piece: y = 0, x != 0
        loc = with_rabinowitsch(Ideal(R2, [X * Y]), X)
        elems = eliminate(loc, {1, 2})
        strs = sorted(str(e) for e in elems)
        assert strs == ["y"]

    def test_rejects_zero_h(self):
        with pytest.raises(ValueError):
            with_rabinowitsch(Ideal(R2, [X]), R2.zero())


class TestOutputBasisProperties:
    def test_spairs_and_generators_reduce_to_zero(self):
        """Random ideals under random lex orders: S-pairs of the result
        and the inputs vanish.

        The checks run through the field-exact tuple-monomial path, which
        is independent of the packed modular engine that produced the
        basis.
        """
        rng = random.Random(101)
        order_rng = random.Random(202)
        rings = [R2, R3]
        trials = 200
        for trial in range(trials):
            ring = rings[trial % 2]
            n = ring.nvars
            # lex reading variable perm[0] first: permute the ring's
            # variables and the generators' exponents alike
            perm = order_rng.sample(range(n), n)
            permuted = PolynomialRing(tuple(ring.variables[i] for i in perm))
            gens = [
                Polynomial(
                    permuted,
                    {
                        tuple(m[i] for i in perm): c
                        for m, c in rand_poly(
                            rng, ring, max_deg=3, max_terms=3, bound=4
                        ).terms.items()
                    },
                )
                for _ in range(rng.randint(1, 3))
            ]
            gb = buchberger(Ideal(permuted, gens))
            elems = [e for e in gb.elements if not e.is_zero()]
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    s = s_polynomial(elems[i], elems[j])
                    if not s.is_zero():
                        assert normal_form(s, elems).is_zero()
            for g in gens:
                if not g.is_zero():
                    assert normal_form(g, elems).is_zero()


def _trial_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimes:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(20_000) if oracles.is_probable_prime(n)] == [
            n for n in range(20_000) if _trial_prime(n)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
        ],
    )
    def test_rejects_strong_pseudoprimes(self, n):
        # each fools Miller-Rabin for a prefix of the bases 2, 3, 5, ...
        assert not oracles.is_probable_prime(n)

    def test_proth_prover_agrees_with_trial_division(self):
        # every Proth number k*2^m + 1, odd k < 2^m, with m <= 10: 1,023 in
        # all, from 3 to 1023*2^10 + 1, among them the squares 9, 25, 49
        # and 81, which are residues modulo every witness
        numbers = [(k, m) for m in range(1, 11) for k in range(1, 1 << m, 2)]
        assert len(numbers) == 1023
        for k, m in numbers:
            n = (k << m) + 1
            assert groebner._is_proth_prime(k, m) == _trial_prime(n), n
        for k, m in ((1, 3), (3, 3), (3, 4), (5, 4)):
            assert not groebner._is_proth_prime(k, m)

    def test_agenda_primes(self):
        # every prime a chain reaches up to the cap, when it skips none:
        # the narrow agenda's first, below 2^120, then the wide agenda's,
        # strictly descending below 2^240, each k*2^m + 1 with odd k < 2^m
        # (m = 60, then 120), and prime to Miller-Rabin with 20 random
        # bases beyond its deterministic ones
        rng = random.Random(24)
        first, *wide = _chain_primes(groebner._MAX_MODULAR_PRIMES)
        assert all(a > b for a, b in zip(wide, wide[1:]))
        assert first < 2**120 < wide[-1] and wide[0] < 2**240
        for p, m in [(first, 60)] + [(p, 120) for p in wide]:
            k, rest = divmod(p - 1, 2**m)
            assert rest == 0 and k % 2 == 1 and k < 2**m
            bases = oracles.MR_BASES + tuple(
                rng.randrange(2, p - 1) for _ in range(20)
            )
            assert oracles.is_probable_prime(p, bases)

    def test_first_agenda_prime(self):
        assert groebner._agenda_prime(0) == (2**60 - 85) * 2**60 + 1
        assert groebner._agenda_prime(1) == (2**60 - 103) * 2**60 + 1
        assert (
            groebner._agenda_prime(0, wide=True)
            == (2**120 - 55) * 2**120 + 1
        )

    def test_stage_inputs_are_rekeyed_through_plain_packings(
        self, watch_node_runs
    ):
        # every stage's input is its parent's basis moved term by term to
        # the stage's order, exactly as codec.pack(parent.unpack(m)) moves
        # it, at a full prime and at a replayed one; a root stage's parent
        # is the seed, the certificate's basis under its own order
        graph = _fixed_graph_ideal()
        n = graph.ideal.ring.nvars
        certificate = groebner._certificate(graph.ideal)
        seed = certificate.codec
        stages = [(0, 0), (1, 1), (0, 2)]
        codecs = [seed] + [
            groebner._stage_codec(n, var)
            for _, var in stages
        ]
        masks = [0] + [
            groebner._SLOT_MASK << (groebner._SLOT_BITS * (n - 1 - var))
            for _, var in stages
        ]
        inputs = {}

        def recording(gens, engine):
            inputs[engine.codec] = [dict(t) for t in gens]

        certificate.basis()
        watch_node_runs(recording)
        traces = {}
        for index in range(3):
            p = groebner._agenda_prime(index)
            inputs.clear()
            bases = {
                0: [{m: c % p for m, c in t.items()}
                    for t in certificate.basis()]
            }
            groebner._chain_mod_p(
                p, codecs, stages, masks, {1, 2, 3}, traces, bases
            )
            for node, (parent, _) in enumerate(stages, 1):
                source, codec = codecs[parent], codecs[node]
                old = [
                    {codec.pack(source.unpack(m)): c for m, c in t.items()}
                    for t in bases[parent]
                    if not groebner._involves(t, masks[parent])
                ]
                assert inputs.get(codec, bases[node]) == old
        assert traces and set(inputs) == set(codecs[1:])


def _image(value, modulus):
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def _early_state(drawn, primes):
    """A `_CrtState` that lifted the elements `drawn`, each made monic by a
    leading 1, at each of `primes`; a coefficient's key is its position."""
    elements = [elem + [Fraction(1)] for elem in drawn]
    state = groebner._CrtState()
    for p in primes:
        image = []
        for elem in elements:
            residues = {k: _image(v, p) for k, v in enumerate(elem)}
            image.append({k: r for k, r in residues.items() if r})
        state.lift(p, image)
    return state


def _exact_early_state(drawn, primes):
    """`_early_state` of elements that it reconstructs right."""
    state = _early_state(drawn, primes)
    assert state.reconstruction == [
        {k: v for k, v in enumerate(elem + [Fraction(1)]) if v}
        for elem in drawn
    ]
    return state


def _fresh_reconstruction(state):
    """Every coefficient reconstructed anew, as each prime once did."""
    out = []
    for accum in state.elements:
        elem = {}
        for mono, residue in accum.items():
            value = groebner._rational_reconstruct(residue, state.modulus)
            if value is None:
                return None
            if value:
                elem[mono] = value
        if not elem:
            return None
        out.append(elem)
    return out


@st.composite
def mixed_height_fractions(draw):
    nbits = draw(st.integers(min_value=0, max_value=400))
    dbits = draw(st.integers(min_value=0, max_value=400))
    n = draw(st.integers(min_value=-(2**nbits), max_value=2**nbits))
    d = draw(st.integers(min_value=1, max_value=2**dbits))
    return Fraction(n, d)


@st.composite
def _early_risk_cases(draw):
    """Up to four elements of up to eight coefficients, and a count of 1-3
    agenda primes of 120 bits.  A coefficient is of mixed height or lies
    near the risk bound: n*d of about 120*nprimes - k bits for k up to 25,
    n and d each within the reconstruction bound, so that one coefficient
    alone, or a few together, cross 1/8 near k = 10."""
    nprimes = draw(st.integers(min_value=1, max_value=3))
    half = 60 * nprimes - 1

    @st.composite
    def near_the_bound(draw):
        bits = 2 * half - draw(st.integers(min_value=0, max_value=25))
        nbits = draw(st.integers(min_value=bits - half, max_value=half))
        n = draw(st.integers(min_value=2 ** (nbits - 1), max_value=2**nbits))
        d = draw(st.integers(
            min_value=2 ** (bits - nbits - 1), max_value=2 ** (bits - nbits)
        ))
        return Fraction(draw(st.sampled_from([-n, n])), d)

    coefficient = st.one_of(mixed_height_fractions(), near_the_bound())
    drawn = draw(st.lists(
        st.lists(coefficient, max_size=8), min_size=1, max_size=4
    ))
    return drawn, nprimes


@st.composite
def _shared_denominator_elements(draw):
    """Coefficients n_k/d of one denominator d, each n_k prime to d or 0,
    n_k and d of up to 400 bits, as a monic output's are."""
    d = draw(st.integers(min_value=1, max_value=2**400))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        nbits = draw(st.integers(min_value=0, max_value=400))
        n = draw(st.integers(min_value=-(2**nbits), max_value=2**nbits))
        # -1 and 1 are prime to d, so a nonzero n stays nonzero
        while n and math.gcd(n, d) != 1:
            n += 1
        out.append(Fraction(n, d))
    return out


class TestRationalReconstruction:
    @pytest.mark.parametrize("modulus", [3, 101, 105, 1001, 7 * 11 * 13 * 17])
    def test_exhaustive_small_moduli(self, modulus):
        """Each residue gives the one fraction within isqrt(M/2) that maps
        to it, or None when no such fraction exists."""
        bound = math.isqrt(modulus // 2)
        within = {}
        for d in range(1, bound + 1):
            if math.gcd(d, modulus) != 1:
                continue
            for n in range(-bound, bound + 1):
                if math.gcd(n, d) == 1:
                    value = Fraction(n, d)
                    within.setdefault(_image(value, modulus), set()).add(value)
        for residue in range(modulus):
            got = groebner._rational_reconstruct(residue, modulus)
            if residue in within:
                assert {got} == within[residue]
            else:
                assert got is None

    def test_round_trip_within_bound_only(self):
        rng = random.Random(7)
        modulus = math.prod(groebner._agenda_prime(i) for i in range(5))
        bound = math.isqrt(modulus // 2)
        for _ in range(300):
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            got = groebner._rational_reconstruct(_image(value, modulus), modulus)
            assert got == value
        nones = 0
        for _ in range(300):
            n, d = rng.randint(bound + 1, 8 * bound), rng.randint(1, bound)
            if math.gcd(n, d) != 1:
                continue
            value = Fraction(rng.choice((-1, 1)) * n, d)
            got = groebner._rational_reconstruct(_image(value, modulus), modulus)
            if got is None:
                nones += 1
                continue
            # another fraction within the bound shares the residue
            assert got != value
            assert abs(got.numerator) <= bound and got.denominator <= bound
            assert _image(got, modulus) == _image(value, modulus)
        assert nones > 0


class TestCrtState:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(mixed_height_fractions(), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=14),
    )
    def test_matches_fresh_reconstruction(self, drawn, nprimes):
        """After every prime, the reused reconstructions equal a fresh one,
        and `lift` returns the reconstruction, made primitive, exactly when
        the fresh prime votes for the one before it: that one, made
        primitive and reduced mod p, is the prime's image.

        Every element ends in a leading 1, so that each image is monic like
        a reduced basis modulo p.  The first element is planted:
        1 + p0*(p0 // 3) is 1 modulo the first prime p0, so it reconstructs
        to the wrong value 1 before it reconstructs to itself; 7*p0/5
        vanishes modulo p0, so its key is missing from the first image.
        While the planted element changes, `lift` returns None.
        """
        p0 = groebner._agenda_prime(0)
        planted = Fraction(1 + p0 * (p0 // 3))
        elements = [
            elem + [Fraction(1)]
            for elem in [[planted, Fraction(7 * p0, 5)]] + drawn
        ]
        primitive = polynomials._primitive
        state = groebner._CrtState()
        previous = planted_before = None
        for i in range(nprimes):
            p = groebner._agenda_prime(i)
            image = []
            for elem in elements:
                residues = {k: _image(v, p) for k, v in enumerate(elem)}
                image.append({k: r for k, r in residues.items() if r})
            lifted = state.lift(p, image)
            fresh = _fresh_reconstruction(state)
            assert state.reconstruction == fresh
            vote = previous is not None and oracles.candidate_mod_p(
                [primitive(e) for e in previous], p
            ) == image
            if vote:
                assert lifted == [primitive(e) for e in fresh]
            else:
                assert lifted is None
            planted_now = groebner._rational_reconstruct(
                state.elements[0][0], state.modulus
            )
            if i == 0:
                assert planted_now == 1
            elif i >= 4:
                assert planted_now == planted
            if i == 0 or planted_now != planted_before:
                assert lifted is None
            previous, planted_before = fresh, planted_now

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_shared_denominator_elements(), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=14),
    )
    def test_shared_denominators_run_euclid_once_per_element(
        self, drawn, nprimes
    ):
        """Each element n_k/d of a monic output shares one denominator d,
        so Euclid runs at most once per element at every prime where the
        element reconstructs to itself: the first coefficient it runs on
        gives d, and every later one is residue*d/d (see `_CrtState`).
        The reconstruction still equals a fresh one after every prime.
        The first element, of denominator 1, is planted much as in the test
        above: 1 + p0*(p0 // 3) reconstructs to 1 at the first prime p0,
        and 7*p0 vanishes there.
        """
        p0 = groebner._agenda_prime(0)
        elements = [[Fraction(1 + p0 * (p0 // 3)), Fraction(7 * p0)]]
        elements = [elem + [Fraction(1)] for elem in elements + drawn]
        exact = [{m: v for m, v in enumerate(e) if v} for e in elements]
        euclid = groebner._rational_reconstruct
        value = groebner._CrtState._value
        runs = Counter()
        current = []

        def counting_value(state, k, *args):
            current.append(k)
            try:
                return value(state, k, *args)
            finally:
                current.pop()

        def counting_euclid(residue, modulus):
            runs[current[-1]] += 1
            return euclid(residue, modulus)

        state = groebner._CrtState()
        for i in range(nprimes):
            p = groebner._agenda_prime(i)
            image = []
            for elem in elements:
                residues = {m: _image(v, p) for m, v in enumerate(elem)}
                image.append({m: r for m, r in residues.items() if r})
            runs.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(groebner._CrtState, "_value", counting_value)
                patch.setattr(groebner, "_rational_reconstruct", counting_euclid)
                state.lift(p, image)
            assert state.reconstruction == _fresh_reconstruction(state)
            for k, accum in enumerate(state.elements):
                fresh = {
                    m: euclid(r, state.modulus) for m, r in accum.items()
                }
                if fresh == exact[k]:
                    assert runs[k] <= 1

    def test_lift(self):
        # the reconstruction x - 7/3*y + 7 is lifted as the primitive
        # 3x - 7y + 21: no image modulo 3, which divides its denominator,
        # reproduces it, while modulo 7 the element loses its tail and
        # is reproduced
        codec = groebner._Codec((range(2),))
        elem = groebner._to_engine(3 * X - 7 * Y + 21, codec)

        def monic_image(p):
            return groebner._ModularArith(p, codec).normalize(
                {m: c % p for m, c in elem.items() if c % p}
            )

        def lifted_once(q, p, image):
            state = groebner._CrtState()
            assert state.lift(q, [monic_image(q)]) is None
            assert state.reconstruction == [
                {m: Fraction(c, 3) for m, c in elem.items()}
            ]
            return state.lift(p, image)

        q = groebner._agenda_prime(1)
        keys = sorted(elem)
        for values in itertools.product(range(3), repeat=len(keys) - 1):
            image = {keys[-1]: 1}
            image.update((m, v) for m, v in zip(keys, values) if v)
            assert lifted_once(q, 3, [image]) is None
        for p in (7, 11, groebner._agenda_prime(0)):
            assert lifted_once(q, p, [monic_image(p)]) == [elem]
        assert monic_image(7) == {max(elem): 1}

    def test_early_needs_the_risk_bound_and_an_exact_prime(self):
        # x + n/d after one agenda prime p of b = 120 bits: the risk bound
        # 1.2*ln(p)*n*d <= p/8, taken in integers as 5*b*n*d <= 6*p/8, is
        # n*d <= floor(3*p / (20*b)), about p / 2^9.6, so the reconstruction
        # just within it misses the old per-coefficient margin
        # n*d < p / 2^20.  Every prime of a group is exact, since every
        # node returns its prime's reduced basis, so a group needs one
        # lifted prime, and one that holds none offers nothing
        p = groebner._agenda_prime(0)
        d = 3**35
        edge = 3 * p // (20 * p.bit_length()) // d
        below = next(n for n in range(edge, 0, -1) if n % 3)
        above = next(n for n in itertools.count(edge + 1) if n % 3)
        assert 20 * p.bit_length() * below * d <= 3 * p
        assert 20 * p.bit_length() * above * d > 3 * p
        assert below * d >= p >> 20

        assert groebner._CrtState().early() is None
        assert _exact_early_state([[Fraction(below, d)]], [p]).early() == [
            {0: below, 1: d}
        ]
        assert _exact_early_state([[Fraction(above, d)]], [p]).early() is None

    def test_early_weighs_the_sum_of_the_coefficients(self):
        # ten coefficients n/d, each n*d about half the one-coefficient
        # edge, risk 5 times the bound together: no one of them alone
        # would keep the candidate back, but their sum does, in one
        # element or spread over two
        p = groebner._agenda_prime(0)
        d = 3**35
        half = 3 * p // (20 * p.bit_length()) // d // 2
        value = Fraction(half - half % 3 + 1, d)
        assert _exact_early_state([[value]], [p]).early() is not None
        assert _exact_early_state([[value] * 10], [p]).early() is None
        state = _exact_early_state([[value] * 5, [value] * 5], [p])
        assert state.early() is None

    def test_early_offers_a_candidate_with_no_coefficient(self):
        # [1] and monomials have no coefficient but their leading 1s, so
        # their risk is 0 and one prime offers them
        for elements in ([[]], [[], []]):
            state = _exact_early_state(elements, [groebner._agenda_prime(0)])
            assert state.early() == [{0: 1}] * len(elements)

    def test_early_above_the_float_range(self):
        # at a modulus beyond 2^1100, where M/8 and ln(M)*S/M overflow a
        # float, the integer test still decides: a small coefficient is
        # offered, and one near the reconstruction bound is not
        primes = [groebner._agenda_prime(i, wide=True) for i in range(5)]
        modulus = math.prod(primes)
        assert modulus > 2**1100
        with pytest.raises(OverflowError):
            float(modulus)
        bound = math.isqrt(modulus // 2)
        for value, offered in (
            (Fraction(-5, 7), True),
            (Fraction(bound - 1, bound), False),
        ):
            state = _exact_early_state([[value]], primes)
            assert (state.early() is not None) is offered

    @settings(max_examples=200, deadline=None)
    @given(case=_early_risk_cases())
    def test_early_offers_only_within_the_risk_bound(self, case):
        """After each of 1-3 agenda primes, `early` offers the
        reconstruction, made primitive, only when its risk
        1.2*ln(M)*S/M, S the sum of |n|*d over its coefficients but the
        leading 1s, is at most _EARLY_RISK, as an exact rational.  Every
        candidate that the old margin offered (each |n|*d below
        floor(M / 2^20)) is still offered, since there are at most 100
        coefficients and M <= 2^360: 1.2*ln(M)*2^-20*100 < 1/8.  The
        reconstruction may be wrong, as it is for most coefficients drawn
        beyond sqrt(M/2): the risk weighs what was reconstructed."""
        drawn, nprimes = case
        primes = [groebner._agenda_prime(i) for i in range(nprimes)]
        for i in range(nprimes):
            state = _early_state(drawn, primes[: i + 1])
            offered = state.early()
            reconstruction = state.reconstruction
            if reconstruction is None:
                assert offered is None
                continue
            modulus = state.modulus
            assert modulus <= 2**360
            values = [
                v for e in reconstruction for m, v in e.items() if m != max(e)
            ]
            assert all(e[max(e)] == 1 for e in reconstruction)
            assert len(values) <= 100
            weight = sum(abs(v.numerator) * v.denominator for v in values)
            risk = (
                Fraction(6, 5) * Fraction(math.log(modulus)) * weight
                / modulus
            )
            margin = all(
                abs(v.numerator) * v.denominator < modulus >> 20
                for v in values
            )
            if offered is not None:
                assert risk <= groebner._EARLY_RISK
                assert offered == [
                    polynomials._primitive(e) for e in reconstruction
                ]
            if margin:
                assert offered is not None

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([3, 5, 7, 32003, groebner._agenda_prime(0)]),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.integers(min_value=0),
    )
    def test_no_prime_of_a_group_divides_a_denominator(self, primes, seed):
        # n = residue*d modulo M with gcd(n, d) = 1 leaves d prime to M,
        # so every prime of a group, exact ones included, reduces the
        # reconstruction to its own image
        modulus = math.prod(primes)
        residue = seed % modulus
        value = groebner._rational_reconstruct(residue, modulus)
        if value is not None:
            assert math.gcd(value.denominator, modulus) == 1
            assert _image(value, modulus) == residue


_P0 = groebner._agenda_prime(0)


@st.composite
def _early_ideals(draw):
    """Up to three generators on (x, y, u), exponents at most 2, at times
    homogenized in a fourth variable, and one to three drop sets.  A
    coefficient is c or c + p0, p0 the first agenda prime, so the first
    prime often sees another ideal: its whole basis is a wrong candidate
    that reconstructs well within the margin."""
    monomials = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
    coefficients = st.tuples(
        st.integers(min_value=-5, max_value=5).filter(bool), st.booleans()
    ).map(lambda cb: Fraction(cb[0] + _P0 * cb[1]))
    gens = draw(st.lists(
        st.dictionaries(monomials, coefficients, min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ))
    drops = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=2), min_size=1,
                max_size=2).map(frozenset),
        min_size=1,
        max_size=3,
        unique=True,
    ))
    ideal = Ideal(R3, [R3.polynomial(t) for t in gens])
    return _homogenized(ideal) if draw(st.booleans()) else ideal, drops


# A prime far from the agenda's, for reference bases of planted ideals:
# over the integers, their 120-bit coefficients swell for seconds
_REFERENCE_PRIME = 2**127 - 1


def _reference_basis(ideal, blocks):
    """The codec of `blocks` and the ideal's reduced basis under it modulo
    _REFERENCE_PRIME, by the Gebauer-Moller reference of tests/oracles.py."""
    codec = groebner._Codec(blocks)
    q = _REFERENCE_PRIME
    gens = [
        {m: c % q for m, c in groebner._to_engine(g, codec).items()}
        for g in ideal.generators
    ]
    return codec, oracles.reference_buchberger(
        gens, groebner._ModularArith(q, codec)
    )


class TestEarlyAcceptance:
    """A chain output is accepted at the first prime that reconstructs it
    within the risk bound, once it passes its exact checks (see
    `groebner._modular_chain`)."""

    def test_early_outputs_equal_the_reference(self, monkeypatch):
        # whole graded bases, of homogeneous generators checked by the
        # basis check and of inhomogeneous ones eliminated from the
        # certificate's basis, and eliminations from the certificate's
        # basis, both checked by the certificate: every output, most of
        # them accepted by a one-prime proof and some after a refuted one,
        # reduces modulo a prime that no chain uses to the reduced basis
        # that Buchberger's algorithm computes there.  The planted
        # coefficients c + p0 make wrong first-prime candidates of small
        # risk, and across the draws at least one of them is tried and
        # refuted, so the refuted path stays exercised
        refuted = Counter()
        covers = groebner._Certificate.covers
        basis_check = groebner._exact_basis_check

        def recording_covers(self, elems):
            verdict = covers(self, elems)
            refuted["covers"] += verdict is False
            return verdict

        def recording_basis_check(*args):
            verdict = basis_check(*args)
            refuted["basis check"] += not verdict
            return verdict

        monkeypatch.setattr(groebner._Certificate, "covers", recording_covers)
        monkeypatch.setattr(
            groebner, "_exact_basis_check", recording_basis_check
        )

        @settings(max_examples=30, deadline=None)
        @given(case=_early_ideals())
        def check(case):
            ideal, drops = case
            n = ideal.ring.nvars
            q = _REFERENCE_PRIME
            codec, expected = _reference_basis(ideal, [range(n)])
            certificate = groebner._Certificate(ideal)
            lifted = groebner._modular_chain(certificate, codec)
            whole = lifted[frozenset()]
            assert oracles.candidate_mod_p(whole, q) == expected
            lifted = groebner._eliminations(ideal, drops)
            for drop in drops:
                # the kept variables in the order every stage gives them
                kept = groebner._stage_codec(n, min(drop)).blocks[1]
                blocks = [sorted(drop), [j for j in kept if j not in drop]]
                ref_codec, basis = _reference_basis(ideal, blocks)
                mask = sum(
                    groebner._SLOT_MASK << groebner._SLOT_BITS * (n - 1 - j)
                    for j in drop
                )
                got = [
                    groebner._to_engine(e, ref_codec) for e in lifted[drop]
                ]
                assert oracles.candidate_mod_p(got, q) == [
                    t for t in basis if not any(m & mask for m in t)
                ]

        check()
        assert sum(refuted.values()) >= 1

    @pytest.mark.parametrize(
        "forced", [False, True], ids=["bounded", "forced"]
    )
    def test_forced_early_refutation_keeps_the_traces(
        self, monkeypatch, forced
    ):
        # the (x, u) relation (u - 1)^2 - B^2*x with B^2 = 3^50, 80 bits,
        # needs two primes; modulo the first, -B^2 reconstructs to a wrong
        # fraction n/d with n*d of 116 bits, a risk of about 4.2, beyond
        # the bound 1/8, and the second prime replays the stage and proves
        # the relation.  Under a bound of 64 the wrong one is tried at the
        # first prime and refuted by the certificate; the reconstruction
        # was wrong, not the trace, so the second prime replays the stage
        # all the same, and proves the same relation.  The ideal is a graph
        # ideal, and its seed never runs: the stage runs in full at the
        # first prime and replays at the second
        p0, p1 = _chain_primes(2)
        wrong = groebner._rational_reconstruct(-(3**50) % p0, p0)
        assert wrong is not None and wrong != -(3**50)
        weight = abs(wrong.numerator) * wrong.denominator
        assert groebner._EARLY_RISK < 1.2 * math.log(p0) * weight / p0 < 64
        ideal = Ideal(R3, [X3 - Y3**2, U3 - 3**25 * Y3 - 1])
        groebner._certificate(ideal).basis()
        if forced:
            monkeypatch.setattr(groebner, "_EARLY_RISK", Fraction(64))
        refuted = []
        runs = {"full": Counter(), "replayed": Counter()}
        covers = groebner._Certificate.covers

        def recording_covers(self, elems):
            verdict = covers(self, elems)
            if verdict is False:
                refuted.append(elems)
            return verdict

        for kind, name in (("full", "_core_buchberger"),
                           ("replayed", "_replay_buchberger")):
            def counting(gens, engine, trace, kind=kind,
                         inner=getattr(groebner, name)):
                runs[kind][engine.p] += 1
                return inner(gens, engine, trace)

            monkeypatch.setattr(groebner, name, counting)
        monkeypatch.setattr(groebner._Certificate, "covers", recording_covers)
        drop = frozenset({1})
        lifted = groebner._eliminations(ideal, [drop])
        assert lifted[drop] == [(U3 - 1) ** 2 - 3**50 * X3]
        assert len(refuted) == forced
        assert runs == {"full": {p0: 1}, "replayed": {p1: 1}}


def _fermat_inverse(x, p):
    return pow(x % p, p - 2, p)


class TestModularInverses:
    PRIMES = (3, 32003, groebner._agenda_prime(0))

    def _residues(self, p):
        rng = random.Random(p)
        return [1, p - 1] + [rng.randrange(1, p) for _ in range(20)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_normalize(self, p):
        codec = groebner._Codec((range(2),))
        engine = groebner._ModularArith(p, codec)
        top, mid, low = (codec.pack(e) for e in ((2, 0), (1, 1), (0, 0)))
        for lc in self._residues(p):
            terms = {top: lc, mid: p - 1, low: 1}
            inv = _fermat_inverse(lc, p)
            want = {m: v * inv % p for m, v in terms.items()}
            assert engine.normalize(terms) == want
            assert want[top] == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_lift(self, p):
        # the reconstruction x - (p - 1)/lc, lifted from agenda primes other
        # than p, for leading coefficients lc congruent to r, beyond p and
        # negative: p reproduces it, as primitive integers, with the monic
        # image of lc*x - (p - 1), and not with another constant term
        codec = groebner._Codec((range(2),))
        top, low = codec.pack((1, 0)), codec.one_key
        earlier = [groebner._agenda_prime(i) for i in range(1, 7)]

        def lifted(value, image):
            state = groebner._CrtState()
            for q in earlier:
                state.lift(q, [{m: _image(v, q) for m, v in value.items()}])
            assert state.reconstruction == [value]
            return state.lift(p, [image])

        for r in self._residues(p):
            for lc in (r, r + 5 * p, r - 7 * p, r + p * 3**80):
                elem = {top: lc, low: -(p - 1)}
                inv = _fermat_inverse(lc, p)
                want = {m: c * inv % p for m, c in elem.items()}
                want = {m: c for m, c in want.items() if c}
                wrong = {top: 1, low: (want.get(low, 0) + 1) % p}
                wrong = {m: c for m, c in wrong.items() if c}
                value = {top: Fraction(1), low: Fraction(-(p - 1), lc)}
                assert lifted(value, want) == [polynomials._primitive(value)]
                assert lifted(value, wrong) is None

    @pytest.mark.parametrize("p", PRIMES)
    def test_crt_add_after_a_large_modulus(self, p):
        rng = random.Random(p + 1)
        earlier = [groebner._agenda_prime(i) for i in range(1, 9)]
        keys = range(24)
        state = groebner._CrtState()
        for q in earlier:
            state.add(q, [{k: rng.randrange(1, q) for k in keys}])
        m0 = state.modulus
        assert m0 > p**7
        before = dict(state.elements[0])
        residues = self._residues(p)
        fresh = {k: residues[k % len(residues)] for k in keys}
        state.add(p, [fresh])
        inv = _fermat_inverse(m0, p)
        assert state.modulus == m0 * p
        for k in keys:
            a, b = before[k], fresh[k]
            got = state.elements[0][k]
            assert got == (a + (b - a) * inv % p * m0) % (m0 * p)
            assert got % m0 == a and got % p == b


class TestNormalizeFractions:
    """`polynomials._primitive`, the primitive integer form of the engine's
    dicts and of `UnivariatePolynomial.canonical`, against math.lcm and
    math.gcd on the Fraction values."""

    @staticmethod
    def _reference(result):
        values = {m: Fraction(v) for m, v in result.items()}
        denom = math.lcm(*(v.denominator for v in values.values()))
        ints = {m: int(v * denom) for m, v in values.items()}
        content = math.gcd(*ints.values())
        if ints[max(ints)] < 0:
            content = -content
        return {m: v // content for m, v in ints.items()}

    @staticmethod
    def _trimmed(values):
        # a dense coefficient list: interior zeros, a nonzero last value
        values = list(values)
        while values and not values[-1]:
            values.pop()
        assume(values)
        return values

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**200), max_value=2**200)
            | mixed_height_fractions()
            | st.just(0),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_fraction_products(self, values):
        result = dict(enumerate(self._trimmed(values)))
        got = polynomials._primitive(result)
        assert got == self._reference(result)
        assert all(type(v) is int for v in got.values())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(mixed_height_fractions() | st.just(Fraction(0)), max_size=6),
        mixed_height_fractions().filter(bool),
    )
    def test_canonical_matches_fraction_arithmetic(self, values, lead):
        # leading coefficients of both signs, interior zeros, mixed heights
        p = UnivariatePolynomial(values + [lead])
        want = self._reference(dict(enumerate(values + [lead]))).values()
        assert p.integer_coefficients() == tuple(want)
        assert p.canonical().coefficients == tuple(map(Fraction, want))

    def test_fixed_cases(self):
        big = 2**127 - 1
        for result in (
            {0: 6, 1: -4},
            {0: -3, 1: 9},
            {0: 0, 1: -3, 2: 0, 3: -6},
            {2: Fraction(-1, big), 1: Fraction(2, 3), 0: 5},
            {3: Fraction(1, big * 3**40), 1: Fraction(-7, 2**90)},
        ):
            assert polynomials._primitive(result) == self._reference(result)
        assert polynomials._primitive({1: Fraction(-1, 2), 0: Fraction(1, 3)}) == {
            1: 3, 0: -2,
        }
        assert polynomials._primitive({0: 0, 1: -3, 2: 0, 3: -6}) == {
            0: 0, 1: 1, 2: 0, 3: 2,
        }


class TestLiftCost:
    def test_reconstructions_linear_in_primes(
        self, monkeypatch, watch_node_runs
    ):
        """One lift of coefficients of mixed heights reconstructs each about
        once, plus a few Euclid runs per prime: the coefficient that failed
        last, and those after it that reconstruct to some wrong fraction
        (about 61% of residues have a fraction within the bound), until one
        fails again.  Reconstructing every coefficient after every prime is
        quadratic: here it takes about 15 calls per prime."""
        rng = random.Random(5)
        nvars = 12
        codec = groebner._Codec((i,) for i in range(nvars))
        expected = []
        for i in reversed(range(nvars)):
            # ascending leading monomials meet ever taller constants
            n = rng.getrandbits(120 * (nvars - i) + rng.randint(0, 120)) | 1
            d = rng.getrandbits(rng.randint(1, 200)) | 1
            g = math.gcd(n, d)
            lead = [0] * nvars
            lead[i] = 1
            expected.append(
                {codec.pack(lead): d // g, codec.one_key: -n // g}
            )
        calls = {"reconstruct": 0}
        primes = []
        reconstruct = groebner._rational_reconstruct

        def counting_reconstruct(residue, modulus):
            calls["reconstruct"] += 1
            return reconstruct(residue, modulus)

        def recording_prime(gens, engine):
            primes.append(engine.p)

        ring = PolynomialRing(tuple("x%d" % i for i in range(nvars)))
        gens = [dict(t) for t in reversed(expected)]
        # the inhomogeneous basis is proved by the certificate too; its own
        # chain is built first and not counted
        certificate = groebner._Certificate(Ideal(
            ring, [groebner._from_engine(t, codec, ring) for t in gens]
        ))
        certificate.basis()
        monkeypatch.setattr(
            groebner, "_rational_reconstruct", counting_reconstruct
        )
        watch_node_runs(recording_prime)
        lifted = groebner._modular_chain(certificate, codec)
        result = lifted[frozenset()]
        assert result == expected
        assert primes == _chain_primes(len(primes))
        assert len(primes) >= 10
        coefficients = sum(len(t) for t in expected)
        assert calls["reconstruct"] <= coefficients + 3 * len(primes)
