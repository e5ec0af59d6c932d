"""Basis computation, elimination, dimension, and localization."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polarvalues import groebner
from polarvalues.fields import QQ
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
    LexOrder,
    Polynomial,
    PolynomialRing,
    monomial_add,
)

import oracles
from oracles import normal_form, s_polynomial

R2 = PolynomialRing(("x", "y"), QQ)
X, Y = R2.variable("x"), R2.variable("y")
R3 = PolynomialRing(("x", "y", "u"), QQ)
X3, Y3, U3 = (R3.variable(v) for v in ("x", "y", "u"))


def rand_poly(rng, ring, max_deg=3, max_terms=4, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = Fraction(c)
    return Polynomial(ring, terms)


@st.composite
def codec_cases(draw):
    """Blocks (singletons, one block or two blocks over a random variable
    sequence) and two exponent vectors small enough that their sum keeps
    every slot, block degrees included, in range.  Exponents are often
    tiny, so that block degrees tie and the reverse-lex slots decide."""
    n = draw(st.integers(min_value=1, max_value=4))
    seq = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["singletons", "one_block", "two_blocks"]))
    if kind == "singletons":
        blocks = [(i,) for i in seq]
    elif kind == "one_block" or n == 1:
        blocks = [tuple(seq)]
    else:
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        blocks = [tuple(seq[:cut]), tuple(seq[cut:])]
    exponent = st.integers(min_value=0, max_value=2) | st.integers(
        min_value=0, max_value=0x1FFF
    )
    exps = st.tuples(*[exponent] * n)
    return blocks, draw(exps), draw(exps)


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
        # slot above and ordered x0^2*x1^32767*x2^32767*x3^3 above x0^3
        codec = groebner._Codec(((0,), (1, 2, 3)))
        assert codec.pack((3, 0, 0, 0)) > codec.pack((2, 32767, 32767, 1))
        with pytest.raises(ValueError, match="degree 65537 exceeds the engine"):
            codec.pack((2, 32767, 32767, 3))


class TestSPolynomial:
    def test_classic_example(self):
        order = LexOrder.default(2)
        s = s_polynomial(X**2, X * Y + Y, order)
        # lcm x^2 y / lts; s = y*x^2 - x*(xy + y) = -xy
        assert s == -X * Y

    def test_cancels_leading_terms(self):
        order = LexOrder.default(2)
        p = X**2 + Y
        q = X**2 * Y + X
        s = s_polynomial(p, q, order)
        lead = s.leading_monomial(order) if not s.is_zero() else None
        assert lead != (2, 1)


class TestNormalForm:
    def test_remainder_underneath_staircase(self):
        order = LexOrder.default(2)
        basis = [X**2 - Y, Y**2 - 1]
        r = normal_form(X**4 + X, basis, order)
        # x^4 -> y^2 -> 1
        assert r == X + R2.one()

    def test_difference_in_ideal(self):
        order = LexOrder.default(2)
        basis = [X**2 - Y, X * Y - 1]
        p = X**3 * Y + 7 * X
        r = normal_form(p, basis, order)
        # verify p - r reduces to zero again
        assert normal_form(p - r, basis, order).is_zero()


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

    def test_result_is_reduced(self):
        rng = random.Random(3)
        order = LexOrder.default(2)
        for _ in range(10):
            gens = [rand_poly(rng, R2) for _ in range(2)]
            gb = buchberger(Ideal(R2, gens))
            for i, e in enumerate(gb.elements):
                others = [b for j, b in enumerate(gb.elements) if j != i]
                if others:
                    # no term of e is divisible by another leading term
                    assert normal_form(e, others, order) == e

    def test_prime_field_monic_basis(self):
        p = 32003
        codec = groebner._Codec(((0,), (1,)))
        gens = [
            groebner._to_engine(g, codec) for g in (X**2 + Y**2 - 1, X - Y)
        ]
        basis = groebner._core_buchberger(
            [{m: c % p for m, c in t.items()} for t in gens],
            groebner._ModularArith(p, codec),
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
        order = LexOrder.default(2)
        checked = 0
        for _ in range(15):
            gens = [rand_poly(rng, R2) for _ in range(2)]
            gbq = buchberger(Ideal(R2, gens))
            image = [
                {m: c % p for m, c in groebner._to_engine(g, codec).items()}
                for g in gens
            ]
            try:
                basis = groebner._core_buchberger(image, engine)
            except groebner._UnitIdeal:
                assert gbq.contains_one()
                continue
            assert not gbq.contains_one()
            # for a generic prime the leading staircases agree
            assert [e.leading_monomial(order) for e in gbq.elements] == [
                codec.unpack(max(t)) for t in basis
            ]
            checked += 1
        assert checked >= 5


class TestElimination:
    def test_lex_tail_extraction(self):
        # the default lex order reads y last, so the basis elements free of
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
            order = LexOrder.default(2)
            for e in lex_elems:
                assert normal_form(e, blk_elems or [R2.zero()], order).is_zero() or not blk_elems
            for e in blk_elems:
                assert normal_form(e, lex_elems or [R2.zero()], order).is_zero() or not lex_elems
            assert bool(lex_elems) == bool(blk_elems)

    def test_eliminate_validates_keep(self):
        with pytest.raises(ValueError):
            eliminate(Ideal(R2, [X]), set())
        with pytest.raises(ValueError):
            eliminate(Ideal(R2, [X]), {5})

    def test_eliminate_unit_ideal(self):
        out = eliminate(Ideal(R2, [X, X - R2.one()]), {1})
        assert len(out) == 1 and out[0].is_constant()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sets(st.integers(min_value=0, max_value=2), min_size=1),
        st.sets(st.integers(min_value=0, max_value=2)),
    )
    def test_seed_from_a_larger_subring(self, seed, keep, extra):
        # continuing from the elimination onto keep + extra skips the stages
        # already done and ends where the whole chain ends
        rng = random.Random(seed)
        gens = [rand_poly(rng, R3, max_deg=2) for _ in range(rng.randint(1, 3))]
        ideal = Ideal(R3, gens)
        prefix = eliminate(ideal, keep | extra)
        assert eliminate(ideal, keep, seed_basis=prefix) == eliminate(ideal, keep)

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
                        e.coefficient_of((0, j))
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
        order = LexOrder.default(3)
        for _ in range(8):
            gens = [rand_poly(rng, R3, max_deg=2) for _ in range(2)]
            basis = graded_basis(Ideal(R3, gens))
            gb = buchberger(Ideal(R3, basis))
            gb_direct = buchberger(Ideal(R3, gens))
            assert [str(e) for e in gb.elements] == [
                str(e) for e in gb_direct.elements
            ]


class TestChain:
    def test_stages_stop_with_their_outputs(self, monkeypatch):
        # x - y^2 needs one prime and a fresh one; the (x, u) relation
        # (u - 1)^2 - B^2*x needs as many as B^2 has 62-bit words, and
        # only the seed and its own stage keep running for it
        big = 3**400
        ideal = Ideal(R3, [X3 - Y3**2, U3 - big * Y3 - 1])
        runs = {}
        core = groebner._core_buchberger

        def counting(gens, engine):
            if engine.codec.nvars == 3:
                runs[engine.codec.blocks] = runs.get(engine.codec.blocks, 0) + 1
            return core(gens, engine)

        monkeypatch.setattr(groebner, "_core_buchberger", counting)
        drop_u, drop_y = frozenset({2}), frozenset({1})
        lifted, _ = groebner._eliminations(ideal, [drop_u, drop_y])
        assert lifted[drop_u] == [Y3**2 - X3]
        assert lifted[drop_y] == [(U3 - 1) ** 2 - big**2 * X3]
        seed = ((0, 1, 2),)
        stage_u, stage_y = ((2,), (0, 1)), ((1,), (0, 2))
        assert runs[stage_u] == 2
        assert runs[stage_y] == runs[seed] > 20


def _certificate(ideal):
    codec = groebner._Codec((range(ideal.ring.nvars),))
    gens = [groebner._to_engine(g, codec) for g in ideal.generators]
    return groebner._Certificate(gens, ideal.ring.variables)


class TestCertificate:
    def test_unit_votes_of_two_agenda_primes_overruled(self):
        # N = 1 + p0*p1 is 1 modulo the first two agenda primes, where the
        # ideal becomes <x + y + 1, x + y + 2>, the unit ideal; over the
        # rationals it is the point y = -1/(p0*p1), x = -1 - y
        p0, p1 = groebner._agenda_prime(0), groebner._agenda_prime(1)
        assert (p0, p1) == (2**62 - 57, 2**62 - 87)
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
        assert _certificate(ideal).unit() is False

    def test_rejects_the_unit_candidate_of_a_proper_ideal(self):
        # 3y - 1 lies in the ideal: it is the unit ideal modulo 3, yet
        # y = 1/3, x^2 = -5/3 is a point over the rationals
        ideal = Ideal(R2, [X**2 + 2 * Y + 1, X**2 - Y + 2])
        codec = groebner._Codec((range(2),))
        gens = [groebner._to_engine(g, codec) for g in ideal.generators]
        with pytest.raises(groebner._UnitIdeal):
            groebner._core_buchberger(
                [{m: c % 3 for m, c in t.items()} for t in gens],
                groebner._ModularArith(3, codec),
            )
        one = {codec.one_key: 1}
        # the exact basis check proves only that the ideal lies in <1>
        assert groebner._exact_basis_check(gens, [one], codec)
        certificate = _certificate(ideal)
        assert certificate.unit() is False
        assert certificate.member(one) is False
        assert certificate.covers([one]) is False
        assert affine_dimension(ideal) == 0

    def test_perturbed_relation_fails(self):
        # the (x, u) relation of x*y = 1, u = x^2 + 3*y lies in the ideal;
        # moving any one of its coefficients by one takes it out
        ideal = Ideal(R3, [X3 * Y3 - 1, U3 - X3**2 - 3 * Y3])
        lifted, certificate = groebner._eliminations(ideal, [frozenset({1})])
        (relation,) = lifted[frozenset({1})]
        assert relation.support_variables() == {0, 2}
        assert certificate.contains(relation) is True
        for mono, c in relation.terms.items():
            terms = dict(relation.terms)
            terms[mono] = c + 1
            wrong = Polynomial(R3, terms)
            assert certificate.contains(wrong) is False

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lifted_eliminations_are_members(self, seed):
        rng = random.Random(seed)
        gens = [rand_poly(rng, R3, max_deg=2) for _ in range(rng.randint(1, 3))]
        ideal = Ideal(R3, gens)
        drops = [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]
        lifted, certificate = groebner._eliminations(ideal, drops)
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
            order = LexOrder(tuple(order_rng.sample(range(n), n)))
            gens = [
                rand_poly(rng, ring, max_deg=3, max_terms=3, bound=4)
                for _ in range(rng.randint(1, 3))
            ]
            gb = buchberger(Ideal(ring, gens), order)
            elems = [e for e in gb.elements if not e.is_zero()]
            for i in range(len(elems)):
                for j in range(i + 1, len(elems)):
                    s = s_polynomial(elems[i], elems[j], order)
                    if not s.is_zero():
                        assert normal_form(s, elems, order).is_zero()
            for g in gens:
                if not g.is_zero():
                    assert normal_form(g, elems, order).is_zero()


def _image(value, modulus):
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


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
        """After every prime, the reused reconstructions equal a fresh one.

        The first element is planted: 1 + p0*(p0 // 3) is 1 modulo the
        first prime p0, so it reconstructs to the wrong value 1 before it
        reconstructs to itself; 7*p0/5 vanishes modulo p0, so its key is
        missing from the first image.
        """
        p0 = groebner._agenda_prime(0)
        planted = Fraction(1 + p0 * (p0 // 3))
        elements = [[planted, Fraction(7 * p0, 5)]] + drawn
        state = groebner._CrtState()
        for i in range(nprimes):
            p = groebner._agenda_prime(i)
            image = []
            for elem in elements:
                residues = {k: _image(v, p) for k, v in enumerate(elem)}
                image.append({k: r for k, r in residues.items() if r})
            state.add(p, image)
            assert state.reconstruct() == _fresh_reconstruction(state)
            planted_now = groebner._rational_reconstruct(
                state.elements[0][0], state.modulus
            )
            if i == 0:
                assert planted_now == 1
            elif i >= 4:
                assert planted_now == planted


class TestLiftCost:
    def test_reconstructions_linear_in_primes(self, monkeypatch):
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
        core = groebner._core_buchberger

        def counting_reconstruct(residue, modulus):
            calls["reconstruct"] += 1
            return reconstruct(residue, modulus)

        def recording_core(gens, engine):
            primes.append(engine.p)
            return core(gens, engine)

        monkeypatch.setattr(
            groebner, "_rational_reconstruct", counting_reconstruct
        )
        monkeypatch.setattr(groebner, "_core_buchberger", recording_core)
        names = tuple("x%d" % i for i in range(nvars))
        lifted, _ = groebner._modular_chain(
            [dict(t) for t in reversed(expected)], codec, names
        )
        result = lifted[0]
        assert result == expected
        assert primes == [groebner._agenda_prime(i) for i in range(len(primes))]
        assert len(primes) >= 10
        coefficients = sum(len(t) for t in expected)
        assert calls["reconstruct"] <= coefficients + 3 * len(primes)
