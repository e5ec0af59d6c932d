"""Groebner bases via Buchberger's algorithm, with elimination, dimension,
and localization helpers.

Engine internals: monomials are encoded as single integers whose high
slots realize the active monomial order, so comparison is native integer
comparison, and whose low slots are a plain packing of the exponents, on
which divisibility is tested with a two-operation guard-bit trick.  One
family of orders covers every use: blocks of variables compared in
sequence, each degree-graded and reverse-lex inside.  Singleton blocks give
the pure lexicographic orders of the public interface; a leading block
holding just the eliminated variable yields the same elimination ideal as
a pure lex order but with far smaller intermediate bases, which is what
makes the curve projections in this package tractable.

Pair management uses the standard update procedure with the coprime and
chain pruning criteria; pairs are selected by phantom-homogeneous degree
(sugar) first.  Reduction walks the working tail through a lazy max-heap so
each step costs proportional to the reducer's support, not the tail size.

Rational results come from one multi-modular driver, `_modular_chain`.
For each of a fixed descending sequence of 62-bit primes it runs a whole
chain of bases modulo p: a basis of the generators, then a tree of
one-variable elimination stages, each fed the elements of its parent that
are free of the parent's eliminated variable.  Only the chain's outputs
are combined by Chinese remaindering and rational reconstruction (a
coefficient keeps its last reconstruction while that still matches the
new residue, and an attempt stops at once while the coefficient that
failed last still fails); intermediate stages never leave the modular
engine, and a stage stops running once every output below it is lifted.
A reduced Groebner basis is determined by the ideal and the order, so the
modular route returns the object a direct rational computation would.
Primes are grouped by the staircases of every stage on an output's path,
and an output is accepted once a fresh prime of its group reproduces the
reconstruction and it passes an exact check over the integers:

- an elimination output is certified to lie in the ideal.  The
  certificate (`_Certificate`) is a graded basis of the homogenized
  generators, proved exact by Arnold's Hilbert-function argument and
  dehomogenized to a Groebner basis of the ideal, by which every lifted
  generator must reduce to zero.  A candidate that fails takes more primes.
- a whole basis of the generators (`buchberger`, `graded_basis`,
  `affine_dimension`) must be a Groebner basis by which every generator
  reduces to zero.

Neither check runs on a basis above _EXACT_CHECK_BIT_CAP bits; the
fresh-prime verdict then stands, and an elimination accepted that way
raises an UncertifiedResult warning.  A prime that finds the unit ideal is
believed only when the certificate's basis holds a power of the
homogenizing variable, and is skipped as unlucky otherwise (homogeneous
generators need no certificate; above the cap two such primes decide, with
a warning).
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .fields import is_probable_prime
from .polynomials import (
    LexOrder,
    Polynomial,
    PolynomialRing,
    extend_ring,
    fresh_variable_name,
    lift_polynomial,
)


@dataclass(frozen=True)
class Ideal:
    """A finite generating set in a polynomial ring; zero generators dropped."""

    ring: PolynomialRing
    generators: tuple

    def __init__(self, ring: PolynomialRing, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be polynomials")
            if g.ring != ring:
                raise ValueError("generator outside the ideal's ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis, sorted by ascending leading monomial."""

    ring: PolynomialRing
    order: LexOrder
    elements: tuple

    def contains_one(self) -> bool:
        return any(e.is_constant() and not e.is_zero() for e in self.elements)


# ---------------------------------------------------------------------------
# packed monomials
#
# plain packing: 16 bits per variable, variable 0 in the most significant
# slot; the top bit of each slot is a guard used by the divisibility test,
# so exponents stay below 2**15.  Key packing realizes the monomial order:
# integer comparison of keys must equal the order comparison, and keys must
# be affine-linear in the exponents so the engine can move monomials around
# with plain integer additions of key differences.


_SLOT_BITS = 16
_SLOT_MASK = 0xFFFF
_MAX_EXPONENT = 0x7FFF
_COMPLEMENT = 0x8000

_GUARD_CACHE = {}


def _guard_mask(n: int) -> int:
    mask = _GUARD_CACHE.get(n)
    if mask is None:
        mask = 0
        for k in range(n):
            mask |= 0x8000 << (_SLOT_BITS * k)
        _GUARD_CACHE[n] = mask
    return mask


def _pdivides(a: int, b: int, guard: int) -> bool:
    """Slot-wise a <= b on plain packings: monomial a divides monomial b.

    No borrow leaves a slot, and the low bits of a difference depend only
    on the low bits of its operands, so keys (whose low slots are their
    plain packing) may stand for either argument.
    """
    return ((b | guard) - a) & guard == guard


def _plcm(a: int, b: int, n: int) -> int:
    out = 0
    for k in range(n):
        shift = _SLOT_BITS * k
        x = (a >> shift) & _SLOT_MASK
        y = (b >> shift) & _SLOT_MASK
        out |= (x if x >= y else y) << shift
    return out


def _pdegree(m: int) -> int:
    total = 0
    while m:
        total += m & _SLOT_MASK
        m >>= _SLOT_BITS
    return total


class _Codec:
    """Block order: blocks compare in sequence, each by its degree and then
    reverse-lex inside it.

    Singleton blocks give a lex order, one block the graded reverse-lex
    order.  With ((i,), rest), any monomial involving variable i beats
    every monomial free of it, so the basis elements free of i form a basis
    of the elimination ideal, exactly as with lex.

    A key is the order slots (per block: its degree, then the complements
    of its last variable down to its second) shifted above the plain
    packing.  Its low slots are thus the plain packing itself.
    """

    def __init__(self, blocks):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.nvars = sum(len(b) for b in self.blocks)
        if sorted(i for b in self.blocks for i in b) != list(range(self.nvars)):
            raise ValueError("blocks must partition the variables")
        self.guard = _guard_mask(self.nvars)
        self.plain_bits = _SLOT_BITS * self.nvars
        self.mask = (1 << self.plain_bits) - 1
        self.one_key = self.pack((0,) * self.nvars)

    def pack(self, exps) -> int:
        plain = 0
        for e in exps:
            if e > _MAX_EXPONENT:
                raise ValueError("exponent %d exceeds the engine limit" % e)
            plain = (plain << _SLOT_BITS) | e
        order = 0
        for block in self.blocks:
            degree = sum(exps[i] for i in block)
            if degree > _SLOT_MASK:
                raise ValueError(
                    "degree %d exceeds the engine limit" % degree
                )
            order = (order << _SLOT_BITS) | degree
            for i in reversed(block[1:]):
                order = (order << _SLOT_BITS) | (_COMPLEMENT - exps[i])
        return (order << self.plain_bits) | plain

    def unpack(self, key: int):
        """Exponents read off the low slots; a plain packing works too."""
        exps = [0] * self.nvars
        for i in range(self.nvars - 1, -1, -1):
            exps[i] = key & _SLOT_MASK
            key >>= _SLOT_BITS
        return tuple(exps)

    def plain(self, key: int) -> int:
        return key & self.mask

    def key_from_plain(self, plain: int) -> int:
        return self.pack(self.unpack(plain))

    def degree(self, key: int) -> int:
        return _pdegree(key & self.mask)


def _to_engine(p: Polynomial, codec):
    """Key-packed coefficient dict, scaled to primitive integers with a
    positive leading coefficient."""
    return _IntegerArith.normalize_fractions(
        {codec.pack(m): c for m, c in p.terms.items()}
    )


def _from_engine(terms, codec, ring: PolynomialRing) -> Polynomial:
    return Polynomial(
        ring, {codec.unpack(m): Fraction(v) for m, v in terms.items()}
    )


# ---------------------------------------------------------------------------
# coefficient engines on key-packed dicts


class _IntegerArith:
    """Fraction-free arithmetic on primitive integer coefficient dicts.

    Used for exact verification over the rationals; the heavy basis search
    over the rationals goes through the modular engine.
    """

    def __init__(self, codec):
        self.codec = codec

    @staticmethod
    def normalize(terms):
        if not terms:
            return terms
        g = 0
        for v in terms.values():
            g = math.gcd(g, v)
            if g == 1:
                break
        if terms[max(terms)] < 0:
            g = -g
        if g == 1:
            return terms
        return {m: v // g for m, v in terms.items()}

    def reducer_entry(self, terms):
        """Reducer record with a cheapness key (term count, coefficient size)."""
        lt = max(terms)
        lc = terms[lt]
        return (lt, lc, terms, (len(terms), abs(lc).bit_length()))

    def spoly(self, f, g):
        """S-polynomial of term dicts, integer-scaled to avoid fractions."""
        codec = self.codec
        ltf, ltg = max(f), max(g)
        gamma = math.gcd(f[ltf], g[ltg])
        cf = g[ltg] // gamma
        cg = f[ltf] // gamma
        big = codec.key_from_plain(
            _plcm(codec.plain(ltf), codec.plain(ltg), codec.nvars)
        )
        df = big - ltf
        dg = big - ltg
        out = {}
        for m, c in f.items():
            out[m + df] = c * cf
        for m, c in g.items():
            k = m + dg
            v = out.get(k, 0) - c * cg
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return out

    def reduce(self, target, reducers):
        """Full normal form up to a nonzero rational factor, primitive output.

        The working tail is kept content-free and a running rational
        multiplier keeps emitted head terms exact, so reduction chains never
        accumulate spurious integer factors.
        """
        guard = self.codec.guard
        work = dict(target)
        result = {}
        multiplier = Fraction(1)
        while work:
            g = 0
            for v in work.values():
                g = math.gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for k in work:
                    work[k] //= g
                multiplier /= g
            m = max(work)
            c = work[m]
            hit = None
            for red in reducers:
                if _pdivides(red[0], m, guard):
                    hit = red
                    break
            if hit is None:
                del work[m]
                result[m] = c / multiplier
                continue
            lt, lc, terms, _ = hit
            shift = m - lt
            gamma = math.gcd(c, lc)
            scale = lc // gamma
            factor = c // gamma
            if scale != 1:
                if scale < 0:
                    scale = -scale
                    factor = -factor
                for k in work:
                    work[k] *= scale
                multiplier *= scale
            for mg, cg in terms.items():
                k = mg + shift
                v = work.get(k, 0) - factor * cg
                if v:
                    work[k] = v
                elif k in work:
                    del work[k]
        return self.normalize_fractions(result)

    @staticmethod
    def normalize_fractions(result):
        if not result:
            return result
        denom = 1
        for v in result.values():
            d = v.denominator
            denom = denom * d // math.gcd(denom, d)
        return _IntegerArith.normalize(
            {m: int(v * denom) for m, v in result.items()}
        )


class _ModularArith:
    """Monic-normalizing arithmetic modulo a prime."""

    def __init__(self, p: int, codec):
        self.p = p
        self.codec = codec

    def normalize(self, terms):
        if not terms:
            return terms
        p = self.p
        lc = terms[max(terms)]
        if lc == 1:
            return terms
        inv = pow(lc, p - 2, p)
        return {m: v * inv % p for m, v in terms.items()}

    def reducer_entry(self, terms):
        """Reducer record; the inverse leading coefficient is cached."""
        lt = max(terms)
        inv = pow(terms[lt], self.p - 2, self.p)
        return (lt, inv, terms, (len(terms), 0))

    def spoly(self, f, g):
        p = self.p
        codec = self.codec
        ltf, ltg = max(f), max(g)
        big = codec.key_from_plain(
            _plcm(codec.plain(ltf), codec.plain(ltg), codec.nvars)
        )
        df = big - ltf
        dg = big - ltg
        factor = f[ltf] * pow(g[ltg], p - 2, p) % p
        out = {}
        for m, c in f.items():
            out[m + df] = c
        for m, c in g.items():
            k = m + dg
            v = (out.get(k, 0) - factor * c) % p
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return out

    def reduce(self, target, reducers):
        """Full normal form; the tail is walked through a lazy max-heap."""
        p = self.p
        guard = self.codec.guard
        coeff = dict(target)
        heap = [-m for m in coeff]
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop
        result = {}
        while heap:
            m = -heap[0]
            c = coeff.get(m)
            if not c:
                pop(heap)
                continue
            # _pdivides(red[0], m, guard), inlined: this is the hot loop
            mg = m | guard
            for hit in reducers:
                if (mg - hit[0]) & guard == guard:
                    break
            else:
                pop(heap)
                result[m] = c
                del coeff[m]
                continue
            lt, lc_inv, terms, _ = hit
            shift = m - lt
            factor = c * lc_inv % p
            for mg, cg in terms.items():
                k = mg + shift
                old = coeff.get(k)
                v = ((old or 0) - factor * cg) % p
                if v:
                    coeff[k] = v
                    if not old:
                        push(heap, -k)
                elif old:
                    del coeff[k]
        return self.normalize(result)


# ---------------------------------------------------------------------------
# core basis search (shared by the modular and exact engines)


class _UnitIdeal(Exception):
    """Internal signal: a constant appeared, the basis is {1}."""


def _core_buchberger(gens, engine):
    """Reduced basis of key-packed generators; raises _UnitIdeal for 1.

    Returns the unique reduced basis as a list of normalized packed dicts
    sorted by ascending leading key.
    """
    codec = engine.codec
    one_key = codec.one_key
    basis = []
    plain_lts = []
    sugars = []
    reducers = []
    pairs = {}

    def install(terms, sugar):
        entry = engine.reducer_entry(terms)
        _update_pairs(
            plain_lts, sugars, pairs, codec.plain(entry[0]), sugar, codec
        )
        basis.append(terms)
        reducers.append(entry)
        reducers.sort(key=lambda red: red[3])

    for t in gens:
        if not t:
            continue
        t = engine.reduce(t, reducers)
        if not t:
            continue
        if max(t) == one_key:
            raise _UnitIdeal()
        install(t, max(codec.degree(m) for m in t))

    while pairs:
        (i, j), pair_data = min(pairs.items(), key=lambda kv: (kv[1], kv[0]))
        sugar = pair_data[0]
        del pairs[(i, j)]
        s = engine.spoly(basis[i], basis[j])
        if not s:
            continue
        r = engine.reduce(s, reducers)
        if not r:
            continue
        if max(r) == one_key:
            raise _UnitIdeal()
        install(r, sugar)

    # minimal set: drop elements whose leading monomial another one divides
    guard = codec.guard
    by_lt = sorted(range(len(basis)), key=lambda k: max(basis[k]))
    kept = []
    for k in by_lt:
        if not any(
            _pdivides(plain_lts[j], plain_lts[k], guard) for j in kept
        ):
            kept.append(k)

    # inter-reduce to the unique reduced basis in one ascending pass: a
    # leading monomial dividing a tail monomial of g is smaller than LT(g),
    # so g needs only the already reduced elements before it
    elems = []
    reduced = []
    for k in kept:
        t = engine.reduce(basis[k], reduced)
        elems.append(t)
        reduced.append(engine.reducer_entry(t))
    return elems


def _update_pairs(plain_lts, sugars, pairs, new_plain, new_sugar, codec):
    """Install pairs for a new element, pruning by the standard criteria."""
    t = len(plain_lts)
    n = codec.nvars
    guard = codec.guard
    cand = {i: _plcm(lt_i, new_plain, n) for i, lt_i in enumerate(plain_lts)}
    surviving = {}
    remaining = dict(cand)
    for i in sorted(cand):
        big = remaining.pop(i)
        coprime = big == plain_lts[i] + new_plain
        others = list(remaining.values()) + list(surviving.values())
        if coprime or not any(
            _pdivides(other, big, guard) for other in others
        ):
            surviving[i] = big
    for (i, j) in list(pairs):
        big = pairs[(i, j)][2]
        if (
            _pdivides(new_plain, big, guard)
            and _plcm(plain_lts[i], new_plain, n) != big
            and _plcm(plain_lts[j], new_plain, n) != big
        ):
            del pairs[(i, j)]
    for i, big in surviving.items():
        if big != plain_lts[i] + new_plain:  # drop coprime leading terms
            sugar = max(
                sugars[i] + _pdegree(big - plain_lts[i]),
                new_sugar + _pdegree(big - new_plain),
            )
            pairs[(i, t)] = (sugar, codec.key_from_plain(big), big)
    plain_lts.append(new_plain)
    sugars.append(new_sugar)


# ---------------------------------------------------------------------------
# multi-modular driver over the rationals


_PRIME_CEILING = (1 << 62) - 1
_PRIME_AGENDA = []
# Safety valve only: reconstruction is accepted solely after agreement with a
# fresh prime (plus an exact check when small), so a generous cap costs
# nothing on easy inputs while still terminating if an invariant breaks.
# 512 primes give a CRT modulus of ~31,000 bits.
_MAX_MODULAR_PRIMES = 512
_EXACT_CHECK_BIT_CAP = 120_000


def _agenda_prime(index: int) -> int:
    """The index-th prime below 2^62, descending; cached and deterministic."""
    while len(_PRIME_AGENDA) <= index:
        candidate = (_PRIME_AGENDA[-1] if _PRIME_AGENDA else _PRIME_CEILING) - 1
        if candidate % 2 == 0:
            candidate -= 1
        while not is_probable_prime(candidate):
            candidate -= 2
        _PRIME_AGENDA.append(candidate)
    return _PRIME_AGENDA[index]


def _rational_reconstruct(residue: int, modulus: int):
    """num/den with |num|, den <= sqrt(modulus/2), or None if there is none."""
    if residue == 0:
        return Fraction(0)
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    if t1 < 0:
        return Fraction(-r1, -t1)
    return Fraction(r1, t1)


class _CrtState:
    """Accumulated residues for one staircase across agreeing primes.

    `reconstruct` returns what a fresh `_rational_reconstruct` of every
    coefficient would give, but re-runs Euclid only where that can differ:

    - Reuse.  Each coefficient keeps the last value n/d it reconstructed
      to.  After a further prime, the value is kept without Euclid when
      n - residue*d vanishes modulo the new modulus M.  That is exact: the
      bound B = isqrt(M // 2) only grows with M, so n/d is still within it,
      and M is odd, so 2*B**2 < M.  By the uniqueness of bounded rational
      reconstruction (Wang, Guy & Davenport 1982) n/d is then the one
      fraction within B congruent to the residue, which Euclid at M would
      return.  If the new prime divides d, the congruence fails (gcd(n, d)
      is 1) and Euclid runs as before.
    - Early stop.  The coefficient that failed last is tried first; while
      it still fails, the whole basis would fail, so `reconstruct` returns
      None at once.
    """

    def __init__(self):
        self.modulus = 1
        self.elements = None  # list of dicts: packed key -> residue
        self.values = None  # list of dicts: packed key -> last n/d
        self.failed = None  # (element index, key) that failed last
        self.last_candidate = None

    def add(self, p, modgb):
        if self.elements is None:
            self.modulus = p
            self.elements = [dict(t) for t in modgb]
            self.values = [{} for _ in modgb]
            return
        m0 = self.modulus
        inv = pow(m0 % p, p - 2, p)
        new_mod = m0 * p
        for accum, fresh in zip(self.elements, modgb):
            for mono in set(accum) | set(fresh):
                a = accum.get(mono, 0)
                b = fresh.get(mono, 0)
                accum[mono] = (a + (b - a) * inv % p * m0) % new_mod
        self.modulus = new_mod

    def _value(self, k, mono):
        """Coefficient `mono` of element k as n/d, or None if there is none."""
        residue = self.elements[k][mono]
        known = self.values[k].get(mono)
        if known is not None and (
            known.numerator - residue * known.denominator
        ) % self.modulus == 0:
            return known
        value = _rational_reconstruct(residue, self.modulus)
        if value is not None:
            self.values[k][mono] = value
        return value

    def reconstruct(self):
        """All coefficients as exact rationals, or None if not yet stable."""
        if self.failed is not None and self._value(*self.failed) is None:
            return None
        self.failed = None
        out = []
        for k, accum in enumerate(self.elements):
            elem = {}
            for mono in accum:
                value = self._value(k, mono)
                if value is None:
                    self.failed = (k, mono)
                    return None
                if value:
                    elem[mono] = value
            if not elem:
                return None
            out.append(elem)
        return out


def _candidate_mod_p(candidate, p):
    """Candidate (Fraction dicts) reduced mod p as monic dicts, or None."""
    out = []
    for elem in candidate:
        target = {}
        for mono, value in elem.items():
            den = value.denominator % p
            if den == 0:
                return None
            v = value.numerator % p * pow(den, p - 2, p) % p
            if v:
                target[mono] = v
        if not target:
            return None
        lt = max(target)
        inv = pow(target[lt], p - 2, p)
        out.append({m: c * inv % p for m, c in target.items()})
    return out


def _exact_size(candidate_int) -> int:
    return sum(
        abs(c).bit_length() for t in candidate_int for c in t.values()
    )


def _exact_basis_check(gens_int, candidate_int, codec) -> bool:
    """Over the rationals: S-polynomials and generators all reduce to zero."""
    arith = _IntegerArith(codec)
    reducers = sorted(
        (arith.reducer_entry(t) for t in candidate_int),
        key=lambda red: red[3],
    )
    plain_lts = []
    sugars = []
    pairs = {}
    for t in candidate_int:
        pl = codec.plain(max(t))
        _update_pairs(plain_lts, sugars, pairs, pl, _pdegree(pl), codec)
    for (i, j) in pairs:
        s = arith.spoly(candidate_int[i], candidate_int[j])
        if s and arith.reduce(s, reducers):
            return False
    for t in gens_int:
        if t and arith.reduce(t, reducers):
            return False
    return True


class UncertifiedResult(UserWarning):
    """A result stands without its exact certificate: the certificate's
    basis is above _EXACT_CHECK_BIT_CAP, so only fresh-prime agreement
    backs it, or the result failed the certificate."""


class _Certificate:
    """Exact membership in the ideal I of integer generators, packed under
    any codec of the ring named `names`.

    The proof runs through the homogenized generators g^h, with a new
    variable h placed last.  `graded_basis` lifts their reduced graded
    basis G, whose S-polynomials and generators the driver reduces to zero
    over the integers, and whose staircase matches a basis modulo a prime
    of the same generators.  For homogeneous ideals that proves
    <G> = <g^h> (Arnold, "Modular algorithms for computing Groebner
    bases", JSC 35, 2003): <G> contains <g^h>, and Hilbert functions can
    only grow modulo p, so HF(<G>) <= HF(<g^h>) <= HF(<g^h> mod p) =
    HF(<G>).  Under graded reverse-lex with h last, h divides the leading
    monomial of a homogeneous polynomial only when it divides the whole
    polynomial, so setting h = 1 maps G onto a Groebner basis of I under
    the graded order.  A polynomial lies in I exactly when it reduces to
    zero by that basis, and I is the unit ideal exactly when G holds a
    power of h.

    The basis is computed on first use.  Above _EXACT_CHECK_BIT_CAP the
    driver accepts it without the exact check, so nothing is certified:
    `member` and `unit` then return None.
    """

    def __init__(self, gens_int, names):
        self.gens = gens_int
        self.names = tuple(names)
        self.codec = _Codec((range(len(self.names)),))
        self.bits = None
        self._unit = None
        self._reducers = None
        self._known = {}

    def _build(self):
        n = self.codec.nvars
        ring = PolynomialRing(
            self.names + (fresh_variable_name(self.names, "h"),)
        )
        homogenized = []
        for t in self.gens:
            exps = [self.codec.unpack(m) for m in t]
            top = max(sum(e) for e in exps)
            homogenized.append(
                Polynomial(
                    ring,
                    {
                        e + (top - sum(e),): Fraction(c)
                        for e, c in zip(exps, t.values())
                    },
                )
            )
        basis = [
            _IntegerArith.normalize_fractions(
                {self.codec.pack(m[:n]): c for m, c in g.terms.items()}
            )
            for g in graded_basis(Ideal(ring, homogenized))
        ]
        # the same size the driver compared with the cap: dehomogenizing
        # keeps every coefficient and the leading term
        self.bits = _exact_size(basis)
        self._unit = any(max(t) == self.codec.one_key for t in basis)
        arith = _IntegerArith(self.codec)
        self._reducers = sorted(
            (arith.reducer_entry(t) for t in basis), key=lambda red: red[3]
        )

    def exact(self) -> bool:
        if self._reducers is None:
            self._build()
        return self.bits <= _EXACT_CHECK_BIT_CAP

    def unit(self):
        """Whether 1 lies in I; None when that cannot be certified."""
        return self._unit if self.exact() else None

    def member(self, terms):
        """Whether the polynomial (packed under the graded codec) lies in I;
        None when that cannot be certified."""
        if not self.exact():
            return None
        terms = _IntegerArith.normalize_fractions(terms)
        key = frozenset(terms.items())
        known = self._known.get(key)
        if known is None:
            arith = _IntegerArith(self.codec)
            known = self._known[key] = not arith.reduce(terms, self._reducers)
        return known

    def contains(self, p: Polynomial):
        """`member` for a polynomial of the generators' ring."""
        return self.member({self.codec.pack(m): c for m, c in p.terms.items()})

    def covers(self, elems):
        """Whether every element (packed under any codec of the ring) lies
        in I; None when that cannot be certified."""
        if not self.exact():
            return None
        codec = self.codec
        return all(
            self.member({codec.pack(codec.unpack(m)): c for m, c in t.items()})
            for t in elems
        )

    def uncertified(self, what):
        """Warn that `what` stands unproved, and why."""
        warnings.warn(
            UncertifiedResult(
                "%s; its certificate in (%s), a graded basis of %d bits, "
                "is above the exact-check cap of %d bits"
                % (what, ", ".join(self.names), self.bits,
                   _EXACT_CHECK_BIT_CAP)
            )
        )


def _involves(terms, var_mask) -> bool:
    return any(m & var_mask for m in terms)


def _chain_mod_p(p, gens_int, codecs, stages, masks, needed):
    """Every needed node's reduced basis modulo p; raises _UnitIdeal.

    Node 0 is the basis of the generators under codecs[0]; node k >= 1
    applies stage (parent, var): the parent's elements free of the
    parent's own variable, re-keyed under codecs[k], which puts var in a
    leading block of its own.  Every codec orders polynomials free of the
    variables dropped so far by graded reverse-lex on the rest, so a stage
    whose input does not involve var already has its reduced basis.
    """
    bases = {
        0: _core_buchberger(
            [{m: c % p for m, c in t.items()} for t in gens_int],
            _ModularArith(p, codecs[0]),
        )
    }
    for node, (parent, var) in enumerate(stages, 1):
        if node not in needed:
            continue
        source = codecs[parent]
        codec = codecs[node]
        elems = [
            {codec.pack(source.unpack(m)): c for m, c in t.items()}
            for t in bases[parent]
            if not (parent and _involves(t, masks[parent]))
        ]
        if any(_involves(t, masks[node]) for t in elems):
            elems = _core_buchberger(elems, _ModularArith(p, codec))
        bases[node] = elems
    return bases


def _modular_chain(gens_int, seed_codec, names, stages=(), outputs=(0,)):
    """Reduced rational bases of the outputs of a chain of eliminations.

    `gens_int` are primitive-integer generators packed under `seed_codec`,
    in variables named `names`.  Node 0 is their reduced basis under
    `seed_codec`; each stage (parent, var) makes a new node that eliminates
    var from its parent's elimination ideal (see `_chain_mod_p`).  Only the
    listed output nodes are lifted: node 0 as its whole basis, any other
    node as its elements free of its variable, which form the reduced
    graded basis of the ideal's intersection with the subring free of every
    variable dropped along its path.

    Each prime runs the nodes that some output still lifting needs.  The
    primes of an output are grouped by the staircases of every node on its
    path, and a reconstruction is accepted once a fresh prime of its group
    reproduces it and it is verified: node 0 by the exact basis check
    (skipped above _EXACT_CHECK_BIT_CAP), every other output by the
    membership certificate of the ideal; a candidate that fails takes more
    primes.  A prime that finds the unit ideal is believed when the
    generators are homogeneous (the ideal holds a constant) or the
    certificate proves 1 in the ideal, and skipped as unlucky when the
    certificate proves otherwise; without a certificate two votes decide.

    Returns the lifted outputs (node -> integer dicts, keyed under the
    node's codec) and the certificate.  Raises _UnitIdeal(certificate)
    when 1 is in the ideal, InternalInvariantError when the prime agenda
    is exhausted.
    """
    n = seed_codec.nvars
    codecs = [seed_codec]
    masks = [0]
    paths = [(0,)]
    dropped = [frozenset()]
    for parent, var in stages:
        codecs.append(_Codec(((var,), [j for j in range(n) if j != var])))
        masks.append(_SLOT_MASK << (_SLOT_BITS * (n - 1 - var)))
        paths.append(paths[parent] + (len(paths),))
        dropped.append(dropped[parent] | {var})
    certificate = _Certificate(gens_int, names)
    pending = sorted(set(outputs))
    if not gens_int:
        return {o: [] for o in pending}, certificate
    homogeneous = all(
        len({seed_codec.degree(m) for m in t}) == 1 for t in gens_int
    )
    states = {o: {} for o in pending}
    lifted = {}
    unit_votes = 0
    index = 0
    used = 0
    while pending and used < _MAX_MODULAR_PRIMES:
        p = _agenda_prime(index)
        index += 1
        if any(c % p == 0 for t in gens_int for c in t.values()):
            continue
        used += 1
        needed = {k for o in pending for k in paths[o]}
        try:
            bases = _chain_mod_p(p, gens_int, codecs, stages, masks, needed)
        except _UnitIdeal:
            verdict = True if homogeneous else certificate.unit()
            if verdict is None:
                unit_votes += 1
                if unit_votes >= 2:
                    certificate.uncertified(
                        "the unit ideal rests on two prime votes"
                    )
                    verdict = True
            if verdict:
                raise _UnitIdeal(certificate)
            continue
        for o in list(pending):
            out = bases[o]
            if o:
                out = [t for t in out if not _involves(t, masks[o])]
            staircase = tuple(
                tuple(max(t) for t in bases[k]) for k in paths[o]
            )
            state = states[o].get(staircase)
            if state is None:
                state = states[o][staircase] = _CrtState()
            elif state.last_candidate is not None and (
                _candidate_mod_p(state.last_candidate, p) == out
            ):
                candidate = [
                    _IntegerArith.normalize_fractions(e)
                    for e in state.last_candidate
                ]
                if o == 0:
                    verdict = _exact_size(candidate) > _EXACT_CHECK_BIT_CAP or (
                        _exact_basis_check(gens_int, candidate, seed_codec)
                    )
                else:
                    verdict = certificate.covers(candidate)
                    if verdict is None:
                        certificate.uncertified(
                            "the elimination onto (%s) rests on fresh-prime "
                            "agreement"
                            % ", ".join(names[j] for j in range(n)
                                        if j not in dropped[o])
                        )
                if verdict is not False:
                    lifted[o] = candidate
                    pending.remove(o)
                    continue
            state.add(p, out)
            state.last_candidate = state.reconstruct()
    if pending:
        from .detector import InternalInvariantError

        raise InternalInvariantError(
            "modular basis reconstruction did not stabilize"
        )
    return lifted, certificate


# ---------------------------------------------------------------------------
# drivers


def _basis_elems(ideal: Ideal, codec):
    """Reduced basis as packed dicts under `codec`; raises _UnitIdeal."""
    gens = [_to_engine(g, codec) for g in ideal.generators]
    return _modular_chain(gens, codec, ideal.ring.variables)[0][0]


def buchberger(ideal: Ideal, order: LexOrder = None) -> GroebnerBasis:
    """Reduced Groebner basis of `ideal` under `order` (default lex).

    Basis elements come out normalized (primitive integer coefficients with
    positive leading coefficient) and sorted by ascending leading monomial.
    """
    ring = ideal.ring
    n = ring.nvars
    if order is None:
        order = LexOrder.default(n)
    if len(order.permutation) != n:
        raise ValueError("order permutation length does not match the ring")
    codec = _Codec((i,) for i in order.permutation)
    try:
        elems = _basis_elems(ideal, codec)
    except _UnitIdeal:
        return GroebnerBasis(ring, order, (ring.one(),))
    final = tuple(_from_engine(t, codec, ring) for t in elems)
    return GroebnerBasis(ring, order, final)


def graded_basis(ideal: Ideal) -> list:
    """Reduced basis under the graded order used for dimension counts.

    Returns [1] when 1 is in the ideal.  On homogeneous generators the
    result is exact whenever it is at most _EXACT_CHECK_BIT_CAP bits (see
    `_Certificate`), which is how membership certificates are built.
    """
    ring = ideal.ring
    codec = _Codec((range(ring.nvars),))
    try:
        elems = _basis_elems(ideal, codec)
    except _UnitIdeal:
        return [ring.one()]
    return [_from_engine(t, codec, ring) for t in elems]


def _eliminations(ideal: Ideal, drops):
    """Reduced graded bases of the ideal's intersections with the subrings
    free of each set of variables in `drops`, from one modular chain.

    The variables of a set are dropped one stage at a time in ascending
    index order, and sets that share a prefix share its stages.  Returns
    {drop: list of polynomials} ([1] for every set when 1 is in the ideal)
    and the membership certificate that proved the results.
    """
    ring = ideal.ring
    n = ring.nvars
    nodes = {frozenset(): 0}
    stages = []
    for drop in drops:
        done = frozenset()
        for i in sorted(drop):
            step = done | {i}
            if step not in nodes:
                nodes[step] = len(stages) + 1
                stages.append((nodes[done], i))
            done = step
    codec = _Codec((range(n),))
    gens = [_to_engine(g, codec) for g in ideal.generators]
    outputs = [nodes[frozenset(d)] for d in drops]
    try:
        lifted, certificate = _modular_chain(
            gens, codec, ring.variables, stages, outputs
        )
    except _UnitIdeal as unit:
        return {frozenset(d): [ring.one()] for d in drops}, unit.args[0]
    # every codec of the ring keeps the plain packing in a key's low slots
    return {
        frozenset(d): [
            _from_engine(t, codec, ring) for t in lifted[nodes[frozenset(d)]]
        ]
        for d in drops
    }, certificate


def eliminate(ideal: Ideal, keep, seed_basis=None) -> list:
    """Reduced graded basis of the intersection with the subring on the
    kept variables.

    One modular chain computes it (see `_modular_chain`): for each prime,
    a graded basis of the input and then one stage per eliminated
    variable, whose block order puts that variable alone in the leading
    block, so the elements free of it generate the stage's elimination
    ideal.  Only the final intersection is lifted to the rationals, and it
    is certified to lie in the ideal by an exact membership test (a
    warning of category UncertifiedResult says when the test is too large
    to run).  `seed_basis`, when given, replaces the input: it must be a
    reduced graded basis (as `graded_basis` and `eliminate` return) of the
    ideal's intersection with any subring that contains the kept
    variables.  A variable no element of it involves is already
    eliminated, so a seed free of every dropped variable is only filtered.
    Returns [1] when 1 is in the ideal.
    """
    ring = ideal.ring
    n = ring.nvars
    keep = frozenset(keep)
    if not keep or not all(isinstance(i, int) and 0 <= i < n for i in keep):
        raise ValueError("keep must be a nonempty set of variable indices")
    drop = frozenset(i for i in range(n) if i not in keep)
    if seed_basis is not None:
        seed_basis = list(seed_basis)
        drop = frozenset(
            i for i in drop if any(i in p.support_variables() for p in seed_basis)
        )
        if not drop:
            return [p for p in seed_basis if p.support_variables() <= keep]
        ideal = Ideal(ring, seed_basis)
    return _eliminations(ideal, [drop])[0][drop]


def affine_dimension(ideal: Ideal) -> int:
    """Krull dimension of the zero set; -1 when the zero set is empty.

    Computed combinatorially from the leading monomials of a degree-graded
    basis: the dimension is the largest size of a variable subset that
    meets the support of no leading monomial.
    """
    n = ideal.ring.nvars
    codec = _Codec((range(n),))
    try:
        elems = _basis_elems(ideal, codec)
    except _UnitIdeal:
        return -1
    masks = []
    for t in elems:
        mask = 0
        for i, exp in enumerate(codec.unpack(max(t))):
            if exp:
                mask |= 1 << i
        masks.append(mask)
    best = -1
    for subset in range(1 << n):
        ok = True
        for mask in masks:
            if mask & ~subset == 0:
                ok = False
                break
        if ok:
            size = bin(subset).count("1")
            if size > best:
                best = size
    return best


def with_rabinowitsch(ideal: Ideal, h: Polynomial) -> Ideal:
    """Adjoin t*h - 1 in a ring with a fresh variable t prepended.

    The zero set of the result is the part of V(ideal) outside V(h); the
    fresh variable sits first so the default lex order eliminates it.
    """
    if h.ring != ideal.ring:
        raise ValueError("h lives outside the ideal's ring")
    if h.is_zero():
        raise ValueError("localization requires a nonzero h")
    name = fresh_variable_name(ideal.ring.variables, "t")
    new_ring = extend_ring(ideal.ring, name, front=True)
    t = new_ring.variable(name)
    lifted = [lift_polynomial(g, new_ring) for g in ideal.generators]
    lifted.append(t * lift_polynomial(h, new_ring) - new_ring.one())
    return Ideal(new_ring, lifted)
