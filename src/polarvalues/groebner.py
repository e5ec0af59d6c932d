"""Groebner bases via Buchberger's algorithm, with elimination, dimension,
and localization helpers.

Every rational result comes from one multi-modular driver.  This is an
overview; the argument behind each piece is in the docstring named here.

- Monomials.  A `_Codec` packs a monomial into one integer whose high
  slots realize a block order (blocks compared in sequence, each graded
  reverse-lex) and whose low slots are its plain packing, on which
  divisibility is one guard-bit subtraction (`_pdivides`).  Singleton
  blocks give `buchberger`'s lex order.  An elimination stage puts the
  dropped variable alone in the leading block (`_stage_codec`).
- Bases modulo p.  `_core_buchberger` is a signature run (Gao, Volny &
  Wang) whose reductions keep the working terms in a heap
  (`_ModularArith.reduce`); under a stage's variable mask it only
  top-reduces.  `_Trace` records a full run, and `_replay_buchberger`
  replays it at another prime, arithmetic only, or raises
  `_TraceMismatch`, and the stage then runs in full.
- Chains.  `_modular_chain` runs, at each prime of two Proth agendas
  (`_agenda_prime`), a tree of one-variable stages modulo p
  (`_chain_mod_p`), planned at its first prime (`_plan`), where tied
  root stages race (`_race`).  Only the chain's outputs leave the
  modular engine: `_CrtState` lifts them by Chinese remaindering and
  rational reconstruction, and offers a reconstruction for proof at one
  prime, or after a fresh prime's vote.  A reduced basis is determined
  by the ideal and the order, so the modular route returns what a
  rational computation would.
- Proofs.  Each output is proved once: a whole basis of homogeneous
  generators by `_exact_basis_check` and Arnold's argument, any other
  by the ideal's `_Certificate` (exact membership by a graded basis of
  the homogenized generators, a graph ideal's by its base's) and
  Pauer's lucky-prime argument (`_modular_chain`).  Exact checks reduce
  over the integers (`_IntegerArith`).  Above _EXACT_CHECK_BIT_CAP bits
  they do not run, and what rests on fresh-prime agreement alone warns
  `UncertifiedResult`.
- Entry points.  `buchberger` and `graded_basis` lift whole bases (a
  principal ideal's is its generator, `_basis_elems`), `_eliminations`
  and `eliminate` lift eliminations from one chain, `affine_dimension`
  reads the certificate's leading monomials, and `with_rabinowitsch`
  localizes.  Each Ideal keeps one certificate (`_certificate`), which
  all of them share.
"""

from __future__ import annotations

import heapq
import math
import warnings
from fractions import Fraction

from .polynomials import (
    _MAX_EXPONENT,
    _SLOT_BITS,
    _SLOT_MASK,
    Polynomial,
    PolynomialRing,
    _pack,
    _pdegree,
    _primitive,
    _unpack,
    extend_ring,
    fresh_variable_name,
)
from .record import Record


class Ideal(Record):
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


class GroebnerBasis(Record):
    """A reduced basis, sorted by ascending leading monomial."""

    ring: PolynomialRing
    elements: tuple

    def contains_one(self) -> bool:
        return any(e.is_constant() and not e.is_zero() for e in self.elements)


# ---------------------------------------------------------------------------
# packed monomials
#
# plain packing (`polynomials._pack`): 16 bits per variable, variable 0 in
# the most significant slot; the top bit of each slot is a guard used by the
# divisibility test, so exponents stay below 2**15.  Key packing realizes
# the monomial order:
# integer comparison of keys must equal the order comparison, and keys must
# be affine-linear in the exponents so the engine can move monomials around
# with plain integer additions of key differences.


_COMPLEMENT = 0x8000


def _pdivides(a: int, b: int, guard: int) -> bool:
    """Slot-wise a <= b on plain packings: monomial a divides monomial b.

    No borrow leaves a slot, and the low bits of a difference depend only
    on the low bits of its operands, so keys (whose low slots are their
    plain packing) may stand for either argument.
    """
    return ((b | guard) - a) & guard == guard


def _multiple(m: int, divisors, guard: int) -> bool:
    """Whether a plain packing in `divisors` divides the plain packing m."""
    m |= guard
    for d in divisors:
        if (m - d) & guard == guard:
            return True
    return False


def _plcm(a: int, b: int, guard: int) -> int:
    """Slot-wise max of plain packings: the lcm of two monomials.  A slot
    of (a | guard) - b keeps its guard bit exactly where a >= b, and that
    bit, moved to the slot's bottom and times 0xFFFF, selects a's slot."""
    pick = ((((a | guard) - b) & guard) >> (_SLOT_BITS - 1)) * _SLOT_MASK
    return (a & pick) | (b & ~pick)


class _Codec:
    """Block order: blocks compare in sequence, each by its degree and then
    reverse-lex inside it.

    Singleton blocks give a lex order, one block the graded reverse-lex
    order.  With ((i,), rest), any monomial involving variable i beats
    every monomial free of it, so the basis elements free of i form a basis
    of the elimination ideal, exactly as with lex, but with far smaller
    intermediate bases, which is what makes the curve projections of this
    package tractable.

    A key is the order slots (per block: its degree, then the complements
    of its last variable down to its second) shifted above the plain
    packing.  Its low slots are thus the plain packing itself.  While
    every slot stays in range a key is affine in the exponents, so
    `key_from_plain` adds each exponent's multiple of key(x_i) - key(1)
    to key(1), and `lead` and `degree` read the total degree off the
    block-degree slots.  A codec keeps no memo and holds no mutable state;
    the engine builds each layout once (`_codec`) and shares it.
    """

    def __init__(self, blocks):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.nvars = sum(len(b) for b in self.blocks)
        if sorted(i for b in self.blocks for i in b) != list(range(self.nvars)):
            raise ValueError("blocks must partition the variables")
        self.guard = sum(0x8000 << _SLOT_BITS * k for k in range(self.nvars))
        self.plain_bits = _SLOT_BITS * self.nvars
        self.mask = (1 << self.plain_bits) - 1
        self.one_key = self.pack((0,) * self.nvars)
        # key(x_i) - key(1) for each variable, last variable first: the
        # order in which `key_from_plain` reads a plain packing's slots
        self._moves = [
            self.pack(tuple(int(j == i) for j in range(self.nvars)))
            - self.one_key
            for i in reversed(range(self.nvars))
        ]
        # the bit offsets of the block-degree slots below the top one: one
        # order slot per variable, each block's degree first
        self._top = _SLOT_BITS * (2 * self.nvars - 1)
        self._degree_shifts = []
        slot = 2 * self.nvars - len(self.blocks[0])
        for block in self.blocks[1:]:
            slot -= len(block)
            self._degree_shifts.append(_SLOT_BITS * (slot + len(block) - 1))

    def pack(self, exps) -> int:
        plain = _pack(exps)
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
        return _unpack(key, self.nvars)

    def plain(self, key: int) -> int:
        return key & self.mask

    def key_from_plain(self, plain: int) -> int:
        """The key of a plain packing: key(1) plus each exponent times
        key(x_i) - key(1).  An exponent sum up to _MAX_EXPONENT keeps every
        slot in range; past it `pack` decides, and raises the engine-limit
        error where a slot overflows."""
        key = self.one_key
        total = 0
        rest = plain
        for move in self._moves:
            e = rest & _SLOT_MASK
            if e:
                key += e * move
                total += e
            rest >>= _SLOT_BITS
        if total > _MAX_EXPONENT:
            return self.pack(self.unpack(plain))
        return key

    def degree(self, key: int) -> int:
        """Total degree of a key: the sum of its block-degree slots, the
        first of which is the top slot."""
        total = key >> self._top
        for shift in self._degree_shifts:
            total += (key >> shift) & _SLOT_MASK
        return total

    def lead(self, terms) -> int:
        """The largest key of a term dict by total degree, then by key:
        with one block that is the largest key.  The degree is read off
        each key's block-degree slots, as in `degree`."""
        if len(self.blocks) == 1:
            return max(terms)
        top = self._top
        shifts = self._degree_shifts
        best = None
        best_degree = -1
        for m in terms:
            d = m >> top
            for shift in shifts:
                d += (m >> shift) & _SLOT_MASK
            if d > best_degree or d == best_degree and m > best:
                best, best_degree = m, d
        return best


_CODECS = {}


def _codec(blocks) -> _Codec:
    """The codec of a block layout, built on first use and kept: a codec
    holds no mutable state, so every caller asking for that layout can
    share one."""
    blocks = tuple(tuple(b) for b in blocks)
    codec = _CODECS.get(blocks)
    if codec is None:
        codec = _CODECS[blocks] = _Codec(blocks)
    return codec


def _stage_codec(n: int, var: int) -> _Codec:
    """The codec of a stage that drops variable `var` of n: var alone in
    the leading block, then the rest by graded reverse-lex in reverse ring
    order.

    Reverse-lex ranks a block's last variable lowest in every tie.  A graph
    ideal's value coordinate z, last in its ring, stands for f, a form of
    degree deg f, so it comes first here, and a localization's t,
    prepended to its ring, comes last.  Every stage codec orders the
    polynomials free of its own variable the same way, graded reverse-lex
    on the rest in reverse ring order, which `_chain_mod_p`'s pass-through
    rule needs.
    """
    return _codec(((var,), tuple(j for j in reversed(range(n)) if j != var)))


def _to_engine(p: Polynomial, codec):
    """Key-packed coefficient dict, scaled to primitive integers with a
    positive leading coefficient."""
    return _primitive({codec.pack(m): c for m, c in p.terms.items()})


def _from_engine(terms, codec, ring: PolynomialRing) -> Polynomial:
    return Polynomial(
        ring, {codec.unpack(m): Fraction(v) for m, v in terms.items()}
    )


# ---------------------------------------------------------------------------
# coefficient engines on key-packed dicts


# Content is divided out once the top coefficient outgrows twice its bits at
# the last removal plus a word: few gcd passes, and the swell stays bounded.
_CONTENT_GROWTH = 2
_CONTENT_SLACK_BITS = 64


class _IntegerArith:
    """Fraction-free arithmetic on primitive integer coefficient dicts.

    Used for exact verification over the rationals; the heavy basis search
    over the rationals goes through the modular engine.  Reduction works
    like `_ModularArith.reduce`: the working terms sit in a max-heap of
    keys, and a step scales the working polynomial just enough to subtract
    an integer multiple of the reducer's tail.  Its content is not taken
    at every step, only when the top coefficient's bit length passes
    _CONTENT_GROWTH times its length at the last removal plus
    _CONTENT_SLACK_BITS; the input counts as the first removal.  The terms
    come out one at a time, top first, so a membership test stops at the
    first term that no reducer divides.
    """

    def __init__(self, codec):
        self.codec = codec

    @staticmethod
    def reducer_entry(terms):
        """Reducer record: the leading key and coefficient, and the tail."""
        lt = max(terms)
        tail = dict(terms)
        lc = tail.pop(lt)
        return (lt, lc, tail)

    @staticmethod
    def reducers(basis):
        """Reducer records of `basis`, cheapest first: fewest terms, then
        the shortest leading coefficient."""
        return sorted(
            map(_IntegerArith.reducer_entry, basis),
            key=lambda red: (len(red[2]), red[1].bit_length()),
        )

    def spoly(self, f, g):
        """S-polynomial of term dicts, integer-scaled to avoid fractions."""
        codec = self.codec
        ltf, ltg = max(f), max(g)
        gamma = math.gcd(f[ltf], g[ltg])
        cf = g[ltg] // gamma
        cg = f[ltf] // gamma
        big = codec.key_from_plain(
            _plcm(codec.plain(ltf), codec.plain(ltg), codec.guard)
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

    def _irreducible(self, target, reducers):
        """The terms of the normal form of `target` by the first reducer
        whose leading key divides, top first, as (key, value): the value
        is exact relative to `target`.

        Each key has one heap entry.  A step removes the top and writes
        only keys below it, so none of them has left the heap yet; a
        cancelled coefficient stays as a zero until its key comes up.  The
        working polynomial is scaled/removed times what is left of the
        target (the multiples of reducers subtracted and the terms yielded
        so far taken off), where scaled is the product of the step scales
        and removed that of the contents divided out.
        """
        if not target:
            return
        guard = self.codec.guard
        gcd = math.gcd
        coeff = dict(target)
        heap = [-m for m in coeff]
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop
        scaled = removed = 1
        limit = (
            _CONTENT_GROWTH * coeff[-heap[0]].bit_length()
            + _CONTENT_SLACK_BITS
        )
        while heap:
            m = -pop(heap)
            c = coeff.pop(m)
            if not c:
                continue
            if c.bit_length() > limit:
                g = c
                for v in coeff.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    c //= g
                    for k in coeff:
                        coeff[k] //= g
                    removed *= g
                limit = _CONTENT_GROWTH * c.bit_length() + _CONTENT_SLACK_BITS
            # _pdivides(lt, m, guard), inlined: this is the hot loop
            mg = m | guard
            for lt, lc, tail in reducers:
                if (mg - lt) & guard == guard:
                    break
            else:
                yield m, Fraction(c * removed, scaled)
                continue
            gamma = gcd(c, lc)
            scale = lc // gamma
            factor = c // gamma
            if scale != 1:
                if scale < 0:
                    scale = -scale
                    factor = -factor
                for k in coeff:
                    coeff[k] *= scale
                scaled *= scale
            shift = m - lt
            for mt, ct in tail.items():
                k = mt + shift
                old = coeff.get(k)
                if old is None:
                    coeff[k] = -factor * ct
                    push(heap, -k)
                else:
                    coeff[k] = old - factor * ct

    def reduce(self, target, reducers):
        """Full normal form up to a nonzero rational factor: primitive, with
        a positive leading coefficient.

        It collects every term of `_irreducible`: the working terms sit in a
        max-heap of keys, and the content is divided out only once the top
        coefficient has grown (see the class).  `reduces_to_zero` runs the
        same loop up to its first irreducible term.
        """
        return _primitive(dict(self._irreducible(target, reducers)))

    def reduces_to_zero(self, target, reducers) -> bool:
        """Whether the normal form is zero; stops at the first term that no
        reducer divides."""
        return next(self._irreducible(target, reducers), None) is None


class _ModularArith:
    """Monic-normalizing arithmetic modulo a prime.

    Every element the engine hands out comes from `normalize`, so it is
    monic: a reducer is its leading key and its tail, and an S-polynomial
    needs no scaling.  `var_mask` is the plain-packing mask of the
    variable that the engine's stage drops, 0 for a stage that drops
    nothing and for every other use; a signature run under a nonzero mask
    reduces only the tops of its targets (see `reduce`).
    """

    def __init__(self, p: int, codec, var_mask: int = 0):
        self.p = p
        self.codec = codec
        self.var_mask = var_mask

    def normalize(self, terms):
        if not terms:
            return terms
        p = self.p
        lc = terms[max(terms)]
        if lc == 1:
            return terms
        inv = pow(lc, -1, p)
        return {m: v * inv % p for m, v in terms.items()}

    @staticmethod
    def reducer_entry(terms):
        """Reducer record of a monic element: its leading key and its tail,
        which shares the element's coefficients."""
        lt = max(terms)
        tail = dict(terms)
        del tail[lt]
        return (lt, tail)

    def reduce(self, target, reducers, steps, signature=None):
        """Normal form by the first reducer whose leading key divides: in
        full, except in a signature run of an engine with a nonzero
        `var_mask`, which stops at the first irreducible term.

        The working terms sit in a max-heap of keys, one entry per key
        (Monagan & Pearce, "Sparse polynomial division using a heap", JSC
        46, 2011), so each step costs in proportion to the reducer's
        support, not the tail's size.  A coefficient is reduced modulo p
        once, when its key reaches the top; a reduction step adds (p - c)
        times the reducer's tail to keys that all lie below the top, so
        none of them has left the heap yet.  The list `steps` receives each
        step as its term key followed by its reducer's leading key, in
        order: with the keys of the result, the schedule that `replay`
        applies at another prime.  The list is flat because a trace keeps
        every schedule, reductions to zero included, and a tuple per step
        would nearly double its memory.

        With a `signature` (sig, sugar shift, key shift, known) the
        reduction is regular (see `_core_buchberger`): the reducers are
        (leading key, tail, lim), and one reduces a term m only when m/lt
        times its signature, lim + (deg m << sugar shift) + (m << key
        shift), lies below sig.  Most terms meet no divisor, and most meet
        a key the run has met before, so the run keeps a memo: `known` maps
        a term key to a count of reducers that do not divide it, and the
        scan for m starts past them: after a scan that met no divisor, all
        of them; otherwise those before the first divisor.  Divisibility
        reads only the two keys, and a run only appends reducers, so the
        count stays true for the rest of the run, whatever the target or
        the signature: the scan still finds the first valid reducer in
        install order, and every step is the one a scan from the first
        reducer takes.

        Under a nonzero `var_mask` that regular reduction stops at its
        first term that no reducer divides regularly, the result's leading
        term, and keeps every term below it as it stands, reduced modulo
        p: a top reduction, all that a signature run needs.  Without a
        signature the normal form is always full.
        """
        p = self.p
        guard = self.codec.guard
        degree = self.codec.degree
        if signature is not None:
            sig, sugar_shift, key_shift, known = signature
            top_only = self.var_mask != 0
        coeff = dict(target)
        heap = [-m for m in coeff]
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop
        result = {}
        while heap:
            m = -pop(heap)
            c = coeff.pop(m) % p
            if not c:
                continue
            # _pdivides(lt, m, guard), inlined: this is the hot loop
            mg = m | guard
            if signature is None:
                for lt, tail in reducers:
                    if (mg - lt) & guard == guard:
                        break
                else:
                    result[m] = c
                    continue
            else:
                # reducers[:skip] are known not to divide m
                skip = known.get(m, 0)
                bound = None
                for lt, tail, lim in reducers[skip:]:
                    if (mg - lt) & guard == guard:
                        if bound is None:
                            bound = (
                                sig - (degree(m) << sugar_shift)
                                - (m << key_shift)
                            )
                        if lim < bound:
                            break
                    elif bound is None:
                        skip += 1
                else:
                    known[m] = skip
                    result[m] = c
                    if top_only:
                        for k, v in coeff.items():
                            v %= p
                            if v:
                                result[k] = v
                        break
                    continue
                known[m] = skip
            steps.append(m)
            steps.append(lt)
            shift = m - lt
            factor = p - c
            for mt, ct in tail.items():
                k = mt + shift
                old = coeff.get(k)
                if old is None:
                    coeff[k] = factor * ct
                    push(heap, -k)
                else:
                    coeff[k] = old + factor * ct
        return self.normalize(result)

    def replay(self, target, schedule, tails, lt):
        """`reduce` by the reducers {leading key: tail} in `tails`, along
        the schedule (steps, keys left) that it recorded at another prime,
        whose result had the leading key `lt` (None for a zero).

        Each step adds (p - c) times its reducer's tail, one pass with no
        heap and no divisor search; a step whose coefficient vanishes here
        adds nothing.  Steps descend and write only keys below their own,
        so what is left is what `reduce` leaves unless a term the record
        never reduced is nonzero here and reducible: only a nonzero key
        outside the recorded ones is tested, and a divisor raises
        _TraceMismatch.  That is the normal form for a schedule of a full
        reduction; for one of a top reduction, the keys left include
        reducible ones below the leading key, as the record has them.
        The same final pass makes the result monic by the inverse of its
        coefficient at `lt`; one that vanishes here raises _TraceMismatch.
        The caller checks that `lt` is the result's leading key.
        """
        p = self.p
        steps, left = schedule
        coeff = dict(target)
        get = coeff.get
        flat = iter(steps)
        for m, rt in zip(flat, flat):
            c = coeff.pop(m, 0) % p
            if c:
                shift = m - rt
                factor = p - c
                for mt, ct in tails[rt].items():
                    k = mt + shift
                    coeff[k] = get(k, 0) + factor * ct
        inv = 1
        if lt is not None:
            top = coeff.get(lt, 0) % p
            if not top:
                raise _TraceMismatch()
            inv = pow(top, -1, p)
        guard = self.codec.guard
        result = {}
        for m, c in coeff.items():
            c = c * inv % p
            if c:
                if m not in left and any(
                    _pdivides(rt, m, guard) for rt in tails
                ):
                    raise _TraceMismatch()
                result[m] = c
        return result


# ---------------------------------------------------------------------------
# core basis search (shared by the modular and exact engines)


class _TraceMismatch(Exception):
    """Internal signal: a replayed step left its recorded trace."""


class _Trace:
    """What one full run of `_core_buchberger` did, for replay at another
    prime.

    `entries` holds every reduction of the run in processing order, as
    (source, leading key, schedule, lead).  The source is a generator's
    index, whose target is that generator, or (element number, key shift),
    whose target is that installed element times the monomial t with
    key(t) - key(1) equal to the shift, added to each of its keys.  The
    leading key and the lead (the largest key by total degree, then by key:
    `_Codec.lead`) are those of the element the reduction installed, both
    None for a reduction to zero; a generator that vanishes modulo the
    recording prime is one, first, with an empty schedule.  A schedule is
    what `reduce` did to one polynomial: its steps in order, each a term
    key followed by its reducer's leading key in one flat list, and the set
    of keys it left.  `ngens` is the generator count, `seeds` the packed
    signatures the run queued first (`_seed_signatures`), `kept` the
    install indices of the minimal basis (None until the run is recorded)
    and `final` the schedules of the final inter-reduction, one per kept
    element free of the stage's variable: the leading kept elements, all of
    them under a `var_mask` of 0.  No other signature is recorded: a replay
    computes none, and the seeds, leading keys, leads and zeros it checks
    determine every one (see `_replay_buchberger`).  A replay leaves the
    trace as it is, zeros included, so every replay that completes is a
    whole run.
    """

    def __init__(self):
        self.ngens = None
        self.seeds = None
        self.entries = []
        self.kept = None
        self.final = []


def _minimal(basis, guard):
    """Indices of the elements whose leading monomial no other one divides
    (the first of equal ones), by ascending leading key."""
    lts = [max(t) for t in basis]
    kept = []
    for k in sorted(range(len(basis)), key=lts.__getitem__):
        if not any(_pdivides(lts[j], lts[k], guard) for j in kept):
            kept.append(k)
    return kept


def _inter_reduce(elems, engine, schedules):
    """The reduced basis from a minimal Groebner basis sorted by ascending
    leading key, in one ascending pass: a leading monomial dividing a tail
    monomial of g is smaller than LT(g), so g needs only the already
    reduced elements before it.  For the same reason a leading part of
    such a basis comes out as it would in the whole pass.  Each reduction
    is full, whatever the engine's `var_mask`.  The list `schedules`
    receives each reduction's schedule (see `_Trace`)."""
    out = []
    reduced = []
    for t in elems:
        steps = []
        t = engine.reduce(t, reduced, steps)
        schedules.append((steps, frozenset(t)))
        out.append(t)
        reduced.append(engine.reducer_entry(t))
    return out


def _overflow(image, codec):
    """The engine's exponent-limit error for a signature's Schreyer image
    (a plain packing) whose guard bits are set.  Its two addends are
    below 2^15 per slot, so an overflow sets the slot's guard bit and
    carries no further."""
    return ValueError(
        "exponent %d exceeds the engine limit" % max(codec.unpack(image))
    )


def _core_buchberger(gens, engine, trace):
    """Reduced basis of key-packed generators modulo p, by a signature run
    (Gao, Volny & Wang, "A new framework for computing Groebner bases",
    Math. Comp. 85, 2016; Eder & Faugere, "A survey on signature-based
    algorithms for computing Groebner bases", JSC 80, 2017).

    Signatures.  Generator f_i has signature e_i, and t*e_i is a multiple
    of it.  Signatures compare by sugar degree (deg t + the total degree of
    f_i), then by the codec's key of the Schreyer image t*LT(f_i), then by
    i.  Each is packed into one integer, those three fields from the most
    significant down, the key field 2*plain_bits wide to hold a whole key.
    Keys are affine in the exponents, so multiplying a signature by t adds
    deg(t) at the sugar shift and key(t) - key(1) at the key shift.
    Measured on the workloads, this order beats both the plain Schreyer
    order and position-first orders (CHANGES.md holds the counts).  The
    tests check the runs against a Gebauer-Moller Buchberger loop
    (`tests/oracles.py`).

    The queue starts with the generators' signatures, and each installed
    element queues the J-pair signature of every older one (`_jpairs`).
    Signatures leave the queue in increasing order, one per signature, and
    each is skipped or reduced:

    - syzygy criterion: a syzygy signature of the same index divides it.
      A reduction to zero adds its own signature, and each new element the
      Koszul signature of its pair with every older one (`_jpairs`);
    - cover criterion (GVW, Theorem 2.4): its rewriter is the element g of
      its index whose signature divides it and whose multiple t*g has the
      smallest leading term, the latest such on a tie; it is skipped when
      t*LT(g) lies below the lcm of its J-pair.  Otherwise t*g is its
      target.

    A target is reduced regularly: a term m goes to the first element h, in
    install order, whose leading monomial divides it with m/LT(h)*sig(h)
    below the signature, for the leading term and, at a `var_mask` of 0,
    the tail alike; under a stage's mask the reduction stops at the
    leading term.  Zero adds a syzygy; any other result is installed with
    that signature.  A constant is installed like any element and ends
    the run, since it divides every monomial: the basis of the unit ideal
    is [{one_key: 1}].  The installed polynomials form a Groebner basis, and
    `_minimal` keeps its minimal basis, sorted by ascending leading key.
    At a `var_mask` of 0 `_inter_reduce` returns the unique reduced basis
    from it.  Under a stage's nonzero mask the targets were only
    top-reduced (see `_ModularArith.reduce`), which a signature run
    allows (both papers above).  The stage's order puts
    every key involving its variable above every key free of it, so the
    kept elements free of it lead, and `_inter_reduce` makes them the
    reduced basis of the elimination ideal, the part that the chain
    hands on; the rest follow as installed, with the leading keys of the
    reduced basis.  The lead of an element with an unreduced tail may
    differ from its reduced form's, and with it its Koszul signatures, so
    the criteria may skip other signatures than a fully reducing run.  The
    reduced basis of the elimination ideal is unique, so both hand on the
    same elements, which the tests check.

    `trace`, a fresh `_Trace`, records the run: every reduction, zeros
    included, and each of the final inter-reduction keeps its schedule.
    The run's divisor memo (see `_ModularArith.reduce`) lives and dies
    with it: it is made empty at the start, and a run that a race stops
    drops it with the rest of its state.  The inter-reduction scans
    without one.

    The run is a generator, so that it can stop and resume: after each
    signature it reduces it yields that reduction's work, its term
    reduction steps plus one, a count fixed by the input and the prime
    alone.  The basis is its return value; a full run drains it
    (`_finish`), and `_race` steps several runs side by side.
    """
    p = engine.p
    codec = engine.codec
    guard = codec.guard
    mask = codec.mask
    degree = codec.degree
    key_shift = len(gens).bit_length()
    sugar_shift = key_shift + 2 * codec.plain_bits
    key_mask = (1 << (sugar_shift - key_shift)) - 1
    index_mask = (1 << key_shift) - 1
    layout = (sugar_shift, key_shift, index_mask)
    basis = []
    reducers = []  # (leading key, tail, lim) in install order
    elements = []  # (plain leading key, lim, lead shift, signature)
    rewriters = [[] for _ in gens]  # by index: (image, Schreyer key, LT, k)
    syzygies = [[] for _ in gens]  # by index: syzygy images
    known = {}  # term key -> reducers known not to divide it (`reduce`)
    gens = [
        {m: c for m, c in ((m, c % p) for m, c in g.items()) if c}
        for g in gens
    ]
    for i, g in enumerate(gens):
        if not g:
            trace.entries.append((i, None, ([], frozenset()), None))
    trace.seeds = _seed_signatures(gens, codec)
    queue = list(trace.seeds)
    heapq.heapify(queue)
    lcms = dict.fromkeys(queue)  # signature -> J-pair lcm, None: generator
    while queue:
        sig = heapq.heappop(queue)
        lcm = lcms.pop(sig)
        i = sig & index_mask
        skey = (sig >> key_shift) & key_mask
        image = skey & mask
        if _multiple(image, syzygies[i], guard):
            continue
        if lcm is None:
            source = i
            target = gens[i]
        else:
            best = None
            for g_image, g_skey, g_lt, k in rewriters[i]:
                if _pdivides(g_image, image, guard):
                    lt = g_lt + skey - g_skey
                    if best is None or lt <= best:
                        best, source = lt, (k, skey - g_skey)
            if best < lcm:
                continue
            k, shift = source
            target = {m + shift: c for m, c in basis[k].items()}
        steps = []
        r = engine.reduce(
            target, reducers, steps, (sig, sugar_shift, key_shift, known)
        )
        yield len(steps) // 2 + 1
        if not r:
            syzygies[i].append(image)
            trace.entries.append((source, None, (steps, frozenset()), None))
            continue
        lt, tail = engine.reducer_entry(r)
        lead = codec.lead(r)
        trace.entries.append((source, lt, (steps, frozenset(r)), lead))
        lim = sig - (degree(lt) << sugar_shift) - (lt << key_shift)
        lead_shift = (degree(lead) << sugar_shift) + (
            (lead - codec.one_key) << key_shift
        )
        new = (codec.plain(lt), lim, lead_shift, sig)
        _jpairs(new, elements, queue, lcms, syzygies, codec, layout)
        rewriters[i].append((image, skey, lt, len(basis)))
        elements.append(new)
        basis.append(r)
        reducers.append((lt, tail, lim))
        if lt == codec.one_key:
            break
    kept = _minimal(basis, guard)
    trace.ngens = len(gens)
    trace.kept = kept
    # an element whose leading key is free of the stage's variable is free
    # of it, and those come first in ascending order
    var_mask = engine.var_mask
    free = [basis[k] for k in kept if not max(basis[k]) & var_mask]
    return _inter_reduce(free, engine, trace.final) + [
        basis[k] for k in kept[len(free):]
    ]


def _seed_signatures(supports, codec):
    """The packed signatures e_i that a signature run queues first, one
    per nonzero generator, from the keys of its nonzero terms modulo p
    (see `_core_buchberger`)."""
    key_shift = len(supports).bit_length()
    sugar_shift = key_shift + 2 * codec.plain_bits
    return [
        max(map(codec.degree, g)) << sugar_shift | max(g) << key_shift | i
        for i, g in enumerate(supports)
        if g
    ]


def _finish(run):
    """The basis of a signature run (`_core_buchberger`), run to its end."""
    while True:
        try:
            next(run)
        except StopIteration as end:
            return end.value


def _jpairs(new, elements, queue, lcms, syzygies, codec, layout):
    """Queue the J-pair signatures of a new element with every older one,
    and add their Koszul signatures to `syzygies`.

    An element is (plain leading key, lim, lead shift, signature).  With
    [m] = (deg(m) << sugar shift) + (m << key shift) for a key m, lim is
    sig - [LT], so (m/LT)*sig = lim + [m] for every multiple m of LT, and
    the lead shift is [lead] - [1], so lead*sig = sig + lead shift.  The
    J-pair of a and b is the larger of u*sig(a) and v*sig(b) over
    lcm = u*LT(a) = v*LT(b), that is, max(lim(a), lim(b)) + [lcm]; a pair
    whose sides are equal adds nothing, and a signature keeps its smallest
    lcm.  The Koszul signature, max(lead(b)*sig(a), lead(a)*sig(b)), leads
    the syzygy b*u(a) - a*u(b), u(x) being the module element whose
    polynomial is x; equal sides may cancel, and add nothing.  A signature
    image past the exponent limit raises ValueError.
    """
    sugar_shift, key_shift, index_mask = layout
    mask = codec.mask
    guard = codec.guard
    degree = codec.degree
    plain_b, lim_b, lead_b, sig_b = new
    for plain_a, lim_a, lead_a, sig_a in elements:
        if lim_a != lim_b:
            key = codec.key_from_plain(_plcm(plain_a, plain_b, guard))
            sig = max(lim_a, lim_b) + (degree(key) << sugar_shift) + (
                key << key_shift
            )
            image = (sig >> key_shift) & mask
            if image & guard:
                raise _overflow(image, codec)
            known = lcms.get(sig)
            if known is None:
                lcms[sig] = key
                heapq.heappush(queue, sig)
            elif key < known:
                lcms[sig] = key
        a, b = sig_a + lead_b, sig_b + lead_a
        if a != b:
            sig = max(a, b)
            image = (sig >> key_shift) & mask
            if image & guard:
                raise _overflow(image, codec)
            found = syzygies[sig & index_mask]
            if not _multiple(image, found, guard):
                found.append(image)


def _replay_buchberger(gens, engine, trace):
    """`_core_buchberger` at another prime along a recorded `_Trace`
    (Traverso, "Groebner trace algorithms", ISSAC 1988, in the strong
    form of Faugere's F4 symbolic preprocessing, JPAA 139, 1999).

    Each replayed reduction follows its recorded schedule
    (`_ModularArith.replay`): no heap, no divisor search, and no signature
    queued or tested; the final inter-reduction replays its schedules too,
    for the kept elements free of the stage's variable, and the rest pass
    as installed.
    A reduction that leaves a reducible term outside its record, or whose
    leading key differs from the record, raises _TraceMismatch, and so
    does an installed element whose lead differs; otherwise it is the
    reduction `reduce` would make here by the same reducers.

    Every entry of the full run is replayed, zeros included: a reduction
    to zero must vanish again, and a replay that completes is a whole
    signature run at this prime.  The generators' degrees and leading keys
    modulo p fix the module order, a monomial order on signatures, so a
    replay whose seed signatures differ from the recorded ones, as when a
    generator's leading coefficient vanishes at one prime only, raises
    _TraceMismatch before it starts.  Under the recorded order, the
    replay reproduces every leading key and lead in the recorded order,
    hence every signature, and every recorded zero vanishes again.  The
    J-pair and Koszul signatures, the syzygy and cover decisions and the
    regularity of each recorded step read only those facts, so a run here
    makes the same decisions.  By GVW's theorem its installed elements are
    a Groebner basis at this prime, and the result is what
    `_core_buchberger` returns from them: the reduced basis at a
    `var_mask` of 0, and under a stage's mask the reduced basis of its
    elimination ideal followed by the other kept elements, top-reduced.  A
    generator that vanishes, or reduces to zero, at the recording prime
    only is a zero entry, and fails here.
    """
    p = engine.p
    supports = [[m for m, c in g.items() if c % p] for g in gens]
    if (len(gens) != trace.ngens
            or _seed_signatures(supports, engine.codec) != trace.seeds):
        raise _TraceMismatch()
    basis = []
    tails = {}
    for source, lt, schedule, lead in trace.entries:
        if isinstance(source, tuple):
            k, shift = source
            target = {m + shift: c for m, c in basis[k].items()}
        else:
            target = gens[source]
        r = engine.replay(target, schedule, tails, lt)
        if (max(r) if r else None) != lt:
            raise _TraceMismatch()
        if r:
            if engine.codec.lead(r) != lead:
                raise _TraceMismatch()
            basis.append(r)
            tails[lt] = engine.reducer_entry(r)[1]
    # no kept leading key divides another, so the final pass keeps each
    lts = [lt for _, lt, _, _ in trace.entries if lt is not None]
    elems = []
    tails = {}
    for k, schedule in zip(trace.kept, trace.final):
        t = engine.replay(basis[k], schedule, tails, lts[k])
        elems.append(t)
        lt, tail = engine.reducer_entry(t)
        tails[lt] = tail
    elems.extend(basis[k] for k in trace.kept[len(trace.final):])
    return elems


def _update_pairs(plain_lts, sugars, pairs, new_plain, new_sugar, codec):
    """Install pairs for a new element, pruning by the standard criteria."""
    t = len(plain_lts)
    guard = codec.guard
    cand = {i: _plcm(lt_i, new_plain, guard)
            for i, lt_i in enumerate(plain_lts)}
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
            and _plcm(plain_lts[i], new_plain, guard) != big
            and _plcm(plain_lts[j], new_plain, guard) != big
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


# The odd primes below 100, tried in order as Proth witnesses.  The agenda
# skips a prime N only when N is a square modulo each, about one in 2^24.
_PROTH_WITNESSES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _is_proth_prime(k: int, m: int) -> bool:
    """Whether N = k*2^m + 1, for odd k < 2^m, is proved prime.

    Proth's theorem: N is prime exactly when a^((N-1)/2) = -1 (mod N) for
    some a.  If N is prime, any small prime a that is a quadratic
    non-residue modulo N is such an a.  For m >= 2, N = 1 (mod 4), so by
    reciprocity a is a non-residue modulo N exactly when N is one modulo
    a, which Euler's criterion modulo a decides.  The first witness
    modulo which N is a non-residue therefore decides N with one modular
    power.  Every witness is first tried as a divisor, which rejects most
    composites without a power; N = 3, the only N with m = 1, is a
    witness itself.  An N that is a residue modulo every witness, such as
    the square 49 = 3*2^4 + 1, is rejected: a prime is then skipped, never
    a composite accepted.
    """
    n = (k << m) + 1
    residues = [n % a for a in _PROTH_WITNESSES]
    if 0 in residues:
        return n in _PROTH_WITNESSES
    for a, r in zip(_PROTH_WITNESSES, residues):
        if pow(r, a >> 1, a) == a - 1:
            return pow(a, n >> 1, n) == n - 1
    return False


# The agendas' primes are k*2^m + 1 with odd k < 2^m, descending from
# 2^(2m): the narrow agenda's (m = 60) are four 30-bit digits each, the wide
# agenda's (m = 120) eight (see `_agenda_prime`)
_PROTH_EXPONENTS = (60, 120)
_PRIME_AGENDAS = ([], [])
# Safety valve only: a reconstruction is accepted solely after an exact
# check, or above the cap after agreement with a fresh prime, so a generous
# cap costs nothing on easy inputs while still terminating if an invariant
# breaks.  One 120-bit prime and 255 of 240 bits give a CRT modulus of
# ~61,000 bits.
_MAX_MODULAR_PRIMES = 256
_EXACT_CHECK_BIT_CAP = 120_000
# A reconstruction is tried before any vote only when the chance that it is
# wrong is at most _EARLY_RISK (`_CrtState.early`).  A random residue modulo
# M reconstructs to some n/d with |n|*d <= h with probability about
# 1.2*ln(M)*h/M (Wang, Guy & Davenport 1982; Monagan 2004), so a wrong
# candidate survives with probability at most 1.2*ln(M)*S/M, S the sum of
# |n|*d over its coefficients but each element's leading 1.  A refuted try
# costs one exact check, about what the replays of a vote cost, so trying
# would pay up to a risk near 1/2; 1/8 keeps refuted tries rare.
_EARLY_RISK = Fraction(1, 8)


def _agenda_prime(index: int, wide: bool = False) -> int:
    """The index-th Proth prime k*2^m + 1 below 2^(2m), descending, with
    m = 120 on the wide agenda and 60 on the narrow one; cached and
    deterministic, each proved prime by one modular power
    (`_is_proth_prime`).  A chain takes its first prime, which runs its
    stages in full, from the narrow agenda, and every later prime, which
    replays them, from the wide one.

    CPython stores a 62-bit integer in three 30-bit digits and any
    integer below 2^120 in four, and a full signature run costs about
    the same per prime at either size, while each prime lifts almost
    twice the bits: the chains of the seed-0 report on x + x^2*y in
    (x, y, u) at the default coefficient bound took 2, 2, 4 and 4 primes
    when every output waited for a vote, against 2, 2, 6 and 7 with
    62-bit primes.  Above 120 bits a full run's cost per prime grows
    faster than the primes saved, so the first prime, whose full runs and
    root races record every trace, stays at 120 bits.  A later prime only
    replays traces, whose cost is mostly per term, not per bit: the dense
    cubic's chain replayed modulo 240 bits in 0.62 of the time of two
    replays modulo 120, so the wide agenda lifts the same bits with less
    work.  The chains of that report take 1, 2, 2 and 1 primes (1, 2, 3
    and 1 with 120-bit later primes; CHANGES.md holds the measurements).
    """
    m = _PROTH_EXPONENTS[wide]
    agenda = _PRIME_AGENDAS[wide]
    while len(agenda) <= index:
        k = (agenda[-1] >> m) - 2 if agenda else (1 << m) - 1
        while not _is_proth_prime(k, m):
            k -= 2
        agenda.append((k << m) + 1)
    return agenda[index]


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

    `lift` is the one step per prime: it adds the prime's image,
    reconstructs, and returns the reconstruction, made primitive, when it
    is the one before the prime, which is the prime's vote for it.  By the
    uniqueness below that happens exactly when the last candidate, reduced
    modulo the prime, is its image; a prime that divides a denominator, or
    a monomial that appears or vanishes, changes the reconstruction.

    `early` offers the reconstruction, made primitive, for a proof at one
    prime of the group, when the chance that it is wrong, 1.2*ln(M)*S/M
    with S the sum of |n|*d over its coefficients n/d but the leading 1s,
    is at most _EARLY_RISK.  No prime of the group divides a denominator:
    n = residue*d (mod M) with gcd(n, d) = 1 leaves d prime to M.  So the
    reconstruction, reduced modulo any prime of the group, is that
    prime's image.

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
    - Denominators.  Within one `reconstruct` each element carries D, the
      lcm of the denominators of its values so far (1 at first).  A
      coefficient that fails the reuse test first tries n/d = x/D in
      lowest terms, x = residue*D modulo M taken in (-M/2, M/2], and keeps
      it without Euclid when |n| <= B and d <= B.  That is exact too:
      every factor of D is the denominator of a reconstruction at M, so it
      is prime to M, and x*d = n*D gives n = residue*d (mod M); n/d is
      then the one fraction within B congruent to the residue.  An output
      is monic, so its denominators divide the leading coefficient L of
      its primitive form; once D is L, no right coefficient runs Euclid.
      When every denominator is L, as in most outputs, Euclid runs at most
      once per element at a prime that reconstructs it right.
    - Early stop.  The coefficient that failed last is tried first; while
      it still fails, the whole basis would fail, so `reconstruct` returns
      None at once.  Once it holds, its denominator starts its element's D.
    """

    def __init__(self):
        self.modulus = 1
        self.elements = None  # list of dicts: packed key -> residue
        self.values = None  # list of dicts: packed key -> last n/d
        self.failed = None  # (element index, key) that failed last
        self.reconstruction = None  # the last reconstruct()

    def lift(self, p, image):
        """The reconstruction as primitive integer dicts when p's image
        leaves it unchanged, else None."""
        self.add(p, image)
        previous, self.reconstruction = self.reconstruction, self.reconstruct()
        if previous is None or self.reconstruction != previous:
            return None
        return [_primitive(e) for e in previous]

    def early(self):
        """The reconstruction as primitive integer dicts when its risk is
        within _EARLY_RISK, so that one prime may prove it before any vote,
        else None.

        The risk is 1.2*ln(M)*S/M, S the sum of |n|*d over every
        coefficient n/d but each element's leading 1 (every element is
        monic).  It is bounded in integers: ln(M) < b*ln(2) with b the bit
        length of M, and 1.2*ln(2) < 5/6, so the reconstruction is offered
        when 5*b*S <= 6*M*_EARLY_RISK.  A candidate with no such
        coefficient, such as [1] or a monomial, has S = 0 and is offered
        at once."""
        reconstruction = self.reconstruction
        if reconstruction is None:
            return None
        weight = sum(
            abs(v.numerator) * v.denominator
            for e in reconstruction
            for v in e.values()
        ) - len(reconstruction)
        risk = _EARLY_RISK
        if (5 * self.modulus.bit_length() * weight * risk.denominator
                > 6 * self.modulus * risk.numerator):
            return None
        return [_primitive(e) for e in reconstruction]

    def add(self, p, modgb):
        if self.elements is None:
            self.modulus = p
            self.elements = [dict(t) for t in modgb]
            self.values = [{} for _ in modgb]
            return
        m0 = self.modulus
        inv = pow(m0, -1, p)
        new_mod = m0 * p
        for accum, fresh in zip(self.elements, modgb):
            for mono in set(accum) | set(fresh):
                a = accum.get(mono, 0)
                b = fresh.get(mono, 0)
                accum[mono] = (a + (b - a) * inv % p * m0) % new_mod
        self.modulus = new_mod

    def _value(self, k, mono, den, bound):
        """Coefficient `mono` of element k as n/d, or None if there is none;
        `den` is the element's D and `bound` B (see the class docstring)."""
        residue = self.elements[k][mono]
        modulus = self.modulus
        known = self.values[k].get(mono)
        if known is not None and (
            known.numerator - residue * known.denominator
        ) % modulus == 0:
            return known
        x = residue * den % modulus
        if x > modulus >> 1:
            x -= modulus
        value = Fraction(x, den)
        if abs(value.numerator) > bound or value.denominator > bound:
            value = _rational_reconstruct(residue, modulus)
        if value is not None:
            self.values[k][mono] = value
        return value

    def reconstruct(self):
        """All coefficients as exact rationals, or None if not yet stable."""
        bound = math.isqrt(self.modulus // 2)
        dens = [1] * len(self.elements)
        if self.failed is not None:
            k, mono = self.failed
            value = self._value(k, mono, 1, bound)
            if value is None:
                return None
            dens[k] = value.denominator
        self.failed = None
        out = []
        for k, accum in enumerate(self.elements):
            elem = {}
            den = dens[k]
            for mono in accum:
                value = self._value(k, mono, den, bound)
                if value is None:
                    self.failed = (k, mono)
                    return None
                if value:
                    elem[mono] = value
                    den = math.lcm(den, value.denominator)
            out.append(elem)
        return out


def _exact_size(candidate_int) -> int:
    return sum(
        abs(c).bit_length() for t in candidate_int for c in t.values()
    )


def _exact_basis_check(gens, candidate_int, codec) -> bool:
    """Over the rationals: S-polynomials and generators all reduce to zero
    by the candidate, over the integers (`_IntegerArith`).  The S-pairs
    are pruned by the Gebauer-Moller criteria (`_update_pairs`)."""
    arith = _IntegerArith(codec)
    reducers = arith.reducers(candidate_int)
    plain_lts = []
    sugars = []
    pairs = {}
    for t in candidate_int:
        pl = codec.plain(max(t))
        _update_pairs(plain_lts, sugars, pairs, pl, _pdegree(pl), codec)
    for (i, j) in pairs:
        s = arith.spoly(candidate_int[i], candidate_int[j])
        if not arith.reduces_to_zero(s, reducers):
            return False
    return all(arith.reduces_to_zero(t, reducers) for t in gens)


class UncertifiedResult(UserWarning):
    """A result stands without its exact certificate: the certificate's
    basis, or a whole basis itself, is above _EXACT_CHECK_BIT_CAP, so only
    fresh-prime agreement backs it, or the result failed the
    certificate."""


def _value_generator(ring: PolynomialRing, generators):
    """The generator a*v + F of a graph ideal, v the ring's last variable,
    a a nonzero constant and F free of v, when v occurs in no other
    generator and at least one other is left; None otherwise."""
    if ring.nvars < 2 or len(generators) < 2:
        return None
    v = (0,) * (ring.nvars - 1) + (1,)
    found = [g for g in generators if any(m[-1] for m in g.terms)]
    if len(found) != 1 or any(m[-1] and m != v for m in found[0].terms):
        return None
    return found[0]


class _Certificate:
    """Exact membership in an ideal I, for polynomials packed under any
    codec of its ring.

    It keeps I's ring, its generators and whether they are all
    homogeneous, not the Ideal, which keeps the certificate: a reference
    back would make a cycle that only the cycle collector frees.

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
    the graded order, `basis`.  A polynomial lies in I exactly when it
    reduces to zero by that basis; 1 does exactly when G holds a power of
    h.  The elimination chains start from `basis` under `codec`, and
    their root stages reduce it directly (see `_eliminations`).

    A graph ideal J = B + <g>, whose last variable v occurs only in
    g = a*v + F, a a nonzero constant and F free of v
    (`_value_generator`), is certified by its base B instead: the proof
    above runs on B's generators in the ring without v, and J's basis is
    B's basis G_B, with v's exponent 0, plus g, under the block codec
    ((v), rest).  There LT(g) = v is coprime to every leading monomial of
    G_B, so every S-polynomial of g reduces to zero and G_B + {g} is a
    Groebner basis of J, exact exactly when G_B is.  Its leading
    monomials {v} + LT(G_B) give J's dimension, which is B's.  No
    homogenized graph ideal in n + 2 variables is built or checked.

    Each Ideal keeps one (`_certificate`), and its basis is computed on
    first use.  Above _EXACT_CHECK_BIT_CAP the driver accepts it without
    the exact check, so nothing is certified: `member` and `covers` then
    return None, and `basis` rests on fresh-prime agreement.

    `covers` proves each elimination of I's chains once, a whole basis of
    inhomogeneous generators among them (see `_modular_chain`), so
    `member` keeps no verdict.
    """

    def __init__(self, ideal: Ideal):
        self.ring = ideal.ring
        self.generators = ideal.generators
        self.homogeneous = all(
            len({sum(m) for m in g.terms}) == 1 for g in self.generators
        )
        n = self.ring.nvars
        self.value = _value_generator(self.ring, self.generators)
        self.codec = _codec(
            (range(n),) if self.value is None else ((n - 1,), range(n - 1))
        )
        self.bits = None
        self._basis = None
        self._reducers = None

    def _build(self):
        n = self.codec.nvars
        # a graph ideal proves its base, free of the value variable
        k = n if self.value is None else n - 1
        names = self.ring.variables[:k]
        ring = extend_ring(
            PolynomialRing(names), fresh_variable_name(names, "h")
        )
        homogenized = []
        for g in self.generators:
            if g is self.value:
                continue
            top = g.total_degree()
            homogenized.append(Polynomial(
                ring, {m[:k] + (top - sum(m),): c for m, c in g.terms.items()}
            ))
        # above the cap the basis is unproved; the eliminations, whole
        # bases of inhomogeneous generators, unit-ideal verdicts and
        # dimensions that rest on it warn through `exact`, so it warns
        # nothing here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncertifiedResult)
            lifted = graded_basis(Ideal(ring, homogenized))
        pad = (0,) * (n - k)
        basis = self._basis = [
            _primitive(
                {self.codec.pack(m[:k] + pad): c for m, c in g.terms.items()}
            )
            for g in lifted
        ]
        # the same size the driver compared with the cap: dehomogenizing
        # keeps every coefficient and the leading term.  A graph ideal's
        # value generator takes no check, so its bits do not count
        self.bits = _exact_size(basis)
        self._reducers = _IntegerArith.reducers(basis)
        if self.value is not None:
            # the value generator, often the cheapest, reduces last: a term
            # that both it and G_B divide takes G_B's step, which on the
            # benchmark's panels takes fewer term steps in all
            basis.append(_to_engine(self.value, self.codec))
            self._reducers.append(_IntegerArith.reducer_entry(basis[-1]))

    def basis(self):
        """G with h = 1, plus g for a graph ideal: a Groebner basis of I
        under `codec`, not necessarily reduced, as primitive integer
        dicts."""
        if self._basis is None:
            self._build()
        return self._basis

    def exact(self) -> bool:
        self.basis()
        return self.bits <= _EXACT_CHECK_BIT_CAP

    def member(self, terms):
        """Whether the polynomial, integer terms packed under `codec`, lies
        in I; None when that cannot be certified."""
        if not self.exact():
            return None
        return _IntegerArith(self.codec).reduces_to_zero(
            terms, self._reducers
        )

    def contains(self, p: Polynomial):
        """`member` for a polynomial of the generators' ring."""
        return self.member(_to_engine(p, self.codec))

    def covers(self, elems):
        """Whether every element (packed under any codec of the ring) lies
        in I; None when that cannot be certified."""
        if not self.exact():
            return None
        codec = self.codec
        mask = codec.mask
        return all(
            self.member({codec.key_from_plain(m & mask): c
                         for m, c in t.items()})
            for t in elems
        )

    def uncertified(self, what, bits=None):
        """Warn that `what` stands unproved, and why: the certificate, or
        `what` itself when its `bits` are given, is above the cap."""
        why = (
            "its certificate in (%s), a graded basis of %d bits, is"
            % (", ".join(self.ring.variables), self.bits)
            if bits is None
            else "it has %d bits," % bits
        )
        warnings.warn(
            UncertifiedResult(
                "%s; %s above the exact-check cap of %d bits"
                % (what, why, _EXACT_CHECK_BIT_CAP)
            )
        )


def _involves(terms, var_mask) -> bool:
    return any(m & var_mask for m in terms)


def _chain_mod_p(p, codecs, stages, masks, needed, traces, bases):
    """Every needed node's basis modulo p, reduced where the chain reads
    it.

    `bases` holds node 0, the chain's seed modulo p, and the nodes already
    run at p; it is extended in place and returned.  Node 0 never runs.
    Node k >= 1 applies stage (parent, var): the parent's elements free of
    the parent's own variable, re-keyed under codecs[k], which puts var in
    a leading block of its own; a stage (0, None) drops nothing and keeps
    its own codec.  A root stage, whose parent is node 0, always runs,
    since the seed is not a reduced basis.  Every stage codec orders the
    polynomials free of its own variable the same way, by graded
    reverse-lex on the rest in reverse ring order (`_stage_codec`), so
    below the root a stage whose input does not involve var already has
    its reduced basis and passes it through; the unit ideal's [1] passes
    every such stage so.

    `traces` maps a node to its one trace and is updated in place.  A node
    with a trace replays it (see `_replay_buchberger`).  A node with none,
    or whose replay leaves its trace, runs in full and records a fresh
    trace in its place.  Each runs under its stage's variable mask, so a
    one-variable stage top-reduces inside its run and inter-reduces only
    its elements free of var (see `_core_buchberger`).

    Every node but node 0 gets a Groebner basis of its ideal modulo p with
    the leading monomials of the reduced basis, sorted by ascending
    leading key, whose elements free of its variable are the reduced basis
    of its elimination ideal: the part that its children and its output
    read.  A node of stage (0, None) gets the reduced basis itself.  A
    full run, a completed replay (a whole run), and a stage that passes
    its parent's basis through each return it; what passes through is
    reduced, and free of var.  A root stage's ideal is the one that the
    seed modulo p generates.
    """

    def run(node, elems):
        engine = _ModularArith(p, codecs[node], masks[node])
        if node in traces:
            try:
                return _replay_buchberger(elems, engine, traces[node])
            except _TraceMismatch:
                pass
        trace = traces[node] = _Trace()
        return _finish(_core_buchberger(elems, engine, trace))

    for node, (parent, var) in enumerate(stages, 1):
        if node in bases or node not in needed:
            continue
        elems = _stage_input(codecs, masks, bases, parent, node)
        if not parent or any(_involves(t, masks[node]) for t in elems):
            elems = run(node, elems)
        bases[node] = elems
    return bases


def _stage_input(codecs, masks, bases, parent, node):
    """The input of node's stage: the elements of its parent's basis free
    of the parent's own variable, re-keyed under the node's codec."""
    codec = codecs[node]
    mask = codecs[parent].mask
    return [
        {codec.key_from_plain(m & mask): c for m, c in t.items()}
        for t in bases[parent]
        if not _involves(t, masks[parent])
    ]


def _plan(drops, race):
    """The tree of one-variable stages that drops every set in `drops`, as
    stages (parent, var), node k being made by the k-th stage and every
    parent coming before its children.

    At each node the variable that the most sets pending there contain is
    dropped next, so that its stage serves as many sets as it can; a
    localized chain thus drops t, which every set holds, once.  Only a tie
    at the root is raced, since race(candidates) runs the root's stages for
    them: one between variables that two or more pending sets contain, two
    of them in one set, so that the order changes the tree, and after such
    a tie every later tie at the root between variables that share a set.
    race returns the candidate whose stage does the least work, ties going
    to the lowest index (see `_race`); any other tie goes to the lowest
    index, and nothing is raced.
    """
    stages = []
    raced = False

    def grow(node, done, sets):
        nonlocal raced
        while sets:
            rests = [s - done for s in sets]
            counts = {}
            for rest in rests:
                for v in rest:
                    counts[v] = counts.get(v, 0) + 1
            top = max(counts.values())
            tied = {v for v, c in counts.items() if c == top}
            contested = {
                v for rest in rests if len(rest & tied) > 1
                for v in rest & tied
            }
            if node == 0 and contested and (top > 1 or raced):
                var = race(contested)
                raced = True
            else:
                var = min(tied)
            stages.append((node, var))
            step = done | {var}
            grow(len(stages), step,
                 [s for s in sets if var in s and s != step])
            sets = [s for s in sets if var not in s]

    grow(0, frozenset(), [d for d in drops if d])
    # grow refers to itself, a cycle that would keep race, and through it
    # the chain's bases, traces and suspended runs, alive until the cycle
    # collector runs
    del grow
    return stages


def _race(start):
    """A `race` for `_plan` that runs each candidate only as far as it
    must: race(candidates) is the candidate whose run does the least work
    in all, ties going to the lowest index.

    start(var) returns var's run, an iterator that yields the work of each
    of its steps (see `_core_buchberger`); it is called at var's first
    race.  A heap holds (work so far, var), and the least entry's run takes
    one step.  The first entry found at the top with its run ended wins:
    every other candidate has spent at least as much work already, so its
    total is no less, and of equal totals the lower index is at the top
    first.  So no loser steps past the winner's total by more than one
    step.  A loser stays suspended, and a later race resumes it where it
    stopped.
    """
    runs = {}  # var -> [work so far, its run or, once it ended, None]

    def race(candidates):
        heap = []
        # start(var) numbers var's node: start in index order
        for var in sorted(candidates):
            if var not in runs:
                runs[var] = [0, start(var)]
            heap.append((runs[var][0], var))
        heapq.heapify(heap)
        while True:
            var = heap[0][1]
            entry = runs[var]
            if entry[1] is None:
                return var
            try:
                entry[0] += next(entry[1])
            except StopIteration:
                entry[1] = None
            heapq.heapreplace(heap, (entry[0], var))

    return race


def _modular_chain(certificate, codec, drops=None):
    """Reduced rational bases of the ideal's intersections with the subrings
    free of each set of variables in `drops`, from one chain of
    eliminations.

    `certificate` is the `_Certificate` of the ideal, and node 0 of the
    chain is its seed.  With `drops` None the chain lifts the whole basis
    of the ideal's generators under `codec`, as the output of the empty
    set.  On homogeneous generators the seed is those generators packed
    under `codec` as primitive integer dicts.  On any others `drops`
    becomes the empty set alone, so the whole basis is the certificate's
    elimination of nothing.  Any `drops` start from the certificate's
    basis under its own codec, so every elimination rests on the
    lucky-prime argument below.  Node 0 is the seed modulo each prime and
    never runs.  Each stage (parent, var) makes a new node that
    eliminates var from its parent's elimination ideal, and the stage
    (0, None) makes the node of the empty set, which drops nothing, under
    `codec` (see `_chain_mod_p`).  A node is named by the set of variables
    dropped along its path, and each set is lifted as its node's elements
    free of its variable: for a nonempty set the reduced basis of the
    ideal's intersection with the subring free of that set, under graded
    reverse-lex on the kept variables in reverse ring order.

    Only the outputs are lifted: intermediate stages never leave the
    modular engine, and a stage stops running once every output below it is
    lifted.  The chain plans its tree of stages at its first prime (see
    `_plan`), and races the root stages of the variables that `_plan` asks
    about (`_race`): each is a signature run at that prime, stepped by the
    work it has done, a count of reduction steps, so the tree depends only
    on the input.  A run that ends keeps its basis and its trace as its
    node's; a run still suspended when the tree is planned, always one that
    lost, is dropped with its trace, and no prime runs or replays it again.
    Then the first prime runs the rest of the planned tree.  Every output
    is a unique reduced basis, so the order of the stages is unobservable.

    The first prime is the narrow agenda's first that divides no
    coefficient of the seed, and every later prime the wide agenda's next
    such (`_agenda_prime`): a 120-bit prime for the full runs, and 240-bit
    primes for the replays, which cost little more per prime at twice the
    width.  Nothing below depends on a prime's width.

    Each prime runs the nodes that some output still lifting needs, and
    each returns the reduced basis of its elimination ideal modulo that
    prime, plus top-reduced elements with the leading monomials of its
    ideal's reduced basis (see `_chain_mod_p`).  The primes of an output
    are grouped by the staircases of every stage on its path; node 0's,
    the seed's leading keys, is the same at every prime the chain uses.
    Each prime takes one lifting step per output (`_CrtState.lift`), and
    a reconstruction is put forward in one of two ways:

    - a proof: the reconstruction's risk, 1.2*ln(M)*S/M with S the sum
      of |n|*d over its coefficients n/d but the leading 1s, is at most
      _EARLY_RISK (`_CrtState.early`).  No vote is needed, so an output is
      accepted at the prime that first reconstructs it.  It is tried only
      where the checks below run: on a whole basis within
      _EXACT_CHECK_BIT_CAP, and on an elimination, whose chain starts from
      the certificate's basis, when that basis is exact.
    - a vote, for every other output: a fresh prime of the group
      reproduces it, leaving it unchanged.

    Either way it is then verified, once, by one of two checks.  A whole
    basis, of homogeneous generators, takes the exact basis check (skipped
    above _EXACT_CHECK_BIT_CAP): the ideal lies in the candidate's, and
    the staircases agree, so the two are equal (Arnold's argument, see
    `_Certificate`).  Every elimination, the empty one included, takes the
    membership certificate of the ideal (`_Certificate.covers`): the
    candidate lies in the ideal, and the lucky-prime argument below proves
    the converse.  A candidate that fails takes more primes.  A result
    that stands on fresh-prime agreement alone, an elimination whose
    certificate is above the cap or a whole basis above it itself, warns
    UncertifiedResult.  The unit ideal is no exception: its candidate [1],
    with staircase {1}, passes the basis check trivially and is proved
    like any other output.  A prime that divides a coefficient of the
    seed is skipped.

    Why a candidate C that passed its checks at a prime p of its group is
    the answer (the lucky-prime argument of Pauer, "On lucky ideals for
    Groebner basis computations", JSC 14, 1992).  For a whole basis the
    basis check and Arnold's argument prove it.  For an elimination onto
    the variables S, let G be the exact certificate basis of the ideal I
    that the chain starts from; p divides none of its coefficients.  Each
    root stage runs on G mod p itself, so its ideal is <G mod p>.  Every
    node returns the reduced basis of its elimination ideal modulo p, the
    elements it hands on, plus top-reduced elements with the same
    staircase as its ideal's reduced basis, which no child and no output
    reads; so the elements free of each stage's variable are those that
    the reduced basis of its ideal holds, and the chain still makes C mod
    p the reduced basis of <G mod p> meet F_p[S].  C is
    monic and no prime of its group divides a denominator (see
    `_CrtState`), so C mod p is defined and keeps C's leading monomials.
    Take any j in I meet Q[S] with p-integral coefficients.  Then j mod p
    lies in <G mod p>:

    - when G is a Groebner basis under the graded codec, dividing j by G
      inverts only leading coefficients of G, which are units at p;
    - for a graph ideal I = B + <g>, g = a*v + F with F free of v, G is
      G_B + {g}.  Substituting v = -F/a maps I onto B and fixes B, so
      j = j(x, -F/a) + g*q, and q is p-integral because a, a coefficient
      of G, is a unit at p.  j(x, -F/a) is p-integral and lies in B, so
      dividing it by G_B, a Groebner basis of B whose leading
      coefficients are units at p, leaves zero with p-integral quotients.

    So j mod p lies in <G mod p> meet F_p[S] = <C mod p>, which is all
    that the rest uses.  The remainder r of j by C is p-integral, lies in
    I meet Q[S] since C does (the certificate), and reduces modulo p to
    the remainder of j mod p by C mod p, which is 0.  If r were nonzero, r
    over its p-content would be an element of I meet Q[S] whose residue is
    nonzero, lies in <C mod p> and has no term that a leading monomial of
    C divides, which no nonzero element of <C mod p> has.  So every j
    reduces to zero by C: C is a Groebner basis of I meet Q[S], and a
    reduced one, since every image of its group is reduced with its
    leading monomials.  In particular the output onto (x_i, z) generates
    the whole intersection, so the relation that `nonproper.fiber_relation`
    reads off it has the least x_i-degree of any nonzero element of I in
    Q[x_i, z], by proof rather than by fresh-prime agreement.  The risk
    bound is not needed for this: it only prices a try.  A refuted
    candidate costs an exact check that proves nothing, and a vote costs
    one more prime, which replays every stage on the output's path; the
    bound 1/8 keeps refuted tries rare while few outputs wait for a vote.

    Each stage keeps one trace (see `_chain_mod_p`).  The first prime
    records it in a full run; a raced stage that the tree does not use
    drops its trace, ended or not.  Every later prime replays it whole,
    zeros included, which is a whole run at that prime when it completes,
    so a stage's later primes are arithmetic only.  A replay that leaves
    its trace, at any prime, gives way to a fresh trace recorded there.  A
    candidate that fails its check leaves the traces as they are: a zero
    that vanished at the recording prime only fails its replay at the next
    one, so a whole replay never repeats a wrong staircase, and a refuted
    candidate is a wrong reconstruction, not a wrong trace.

    Returns the lifted outputs (drop set -> integer dicts, keyed under its
    node's codec).  Raises InternalInvariantError when the prime agenda is
    exhausted.
    """
    if drops is None and not certificate.homogeneous:
        # the certificate's elimination of nothing, proved like any other
        drops = [frozenset()]
    whole = drops is None
    if whole:
        drops = [frozenset()]
        seed = [_to_engine(g, codec) for g in certificate.generators]
        codecs = [codec]
    else:
        seed = certificate.basis()
        codecs = [certificate.codec]
    n = codec.nvars
    masks = [0]
    paths = [()]
    dropped = [frozenset()]
    nodes = {}
    stages = []

    def add(parent, var):
        """The node of stage (parent, var), made on first use."""
        step = dropped[parent] if var is None else dropped[parent] | {var}
        if step not in nodes:
            nodes[step] = len(dropped)
            stages.append((parent, var))
            if var is None:
                codecs.append(codec)
                masks.append(0)
            else:
                codecs.append(_stage_codec(n, var))
                masks.append(_SLOT_MASK << (_SLOT_BITS * (n - 1 - var)))
            paths.append(paths[parent] + (nodes[step],))
            dropped.append(step)
        return nodes[step]

    pending = list(dict.fromkeys(frozenset(d) for d in drops))
    if not seed:
        return {d: [] for d in pending}
    states = {d: {} for d in pending}
    lifted = {}
    index = [0, 0]  # the next prime of the narrow and of the wide agenda
    used = 0
    traces = {}  # node -> its one trace
    while pending and used < _MAX_MODULAR_PRIMES:
        wide = used > 0
        p = _agenda_prime(index[wide], wide)
        index[wide] += 1
        if any(c % p == 0 for t in seed for c in t.values()):
            continue
        used += 1
        bases = {0: [{m: c % p for m, c in t.items()} for t in seed]}
        if used == 1:
            # the first prime races the contested root stages ahead of the
            # rest of the tree: a run that ends is its node's, and one
            # still suspended when the tree is planned is dropped

            def start(var):
                node = add(0, var)
                trace = _Trace()
                bases[node] = yield from _core_buchberger(
                    _stage_input(codecs, masks, bases, 0, node),
                    _ModularArith(p, codecs[node], masks[node]),
                    trace,
                )
                traces[node] = trace

            ids = [0]
            for parent, var in _plan(pending, _race(start)):
                ids.append(add(ids[parent], var))
            if frozenset() in pending:
                ids.append(add(0, None))
            traces = {k: t for k, t in traces.items() if k in ids}
        needed = {k for d in pending for k in paths[nodes[d]]}
        _chain_mod_p(p, codecs, stages, masks, needed, traces, bases)
        for d in list(pending):
            o = nodes[d]
            out = [t for t in bases[o] if not _involves(t, masks[o])]
            staircase = tuple(
                tuple(max(t) for t in bases[k]) for k in paths[o]
            )
            state = states[d].get(staircase)
            if state is None:
                state = states[d][staircase] = _CrtState()
            candidate = state.lift(p, out)
            early = candidate is None
            if early:
                candidate = state.early()
            if candidate is None:
                continue
            # a whole basis, of homogeneous generators, is proved by its
            # basis check within the cap; any other output by the
            # certificate
            bits = _exact_size(candidate) if whole else 0
            unchecked = bits > _EXACT_CHECK_BIT_CAP
            if early and (unchecked if whole else not certificate.exact()):
                # what the exact checks cannot prove waits for a vote
                continue
            verdict = (
                unchecked or _exact_basis_check(seed, candidate, codec)
                if whole
                else certificate.covers(candidate)
            )
            if verdict is None or verdict and unchecked:
                unit = candidate == [{codecs[o].one_key: 1}]
                names = certificate.ring.variables
                certificate.uncertified(
                    "the unit ideal rests on two prime votes" if unit
                    else "the basis in (%s) rests on fresh-prime "
                    "agreement" % ", ".join(names)
                    if not d
                    else "the elimination onto (%s) rests on "
                    "fresh-prime agreement"
                    % ", ".join(names[j] for j in range(n) if j not in d),
                    None if verdict is None else bits,
                )
            if verdict is not False:
                lifted[d] = candidate
                pending.remove(d)
    if pending:
        from .detector import InternalInvariantError

        raise InternalInvariantError(
            "modular basis reconstruction did not stabilize"
        )
    return lifted


# ---------------------------------------------------------------------------
# drivers


def _certificate(ideal: Ideal) -> _Certificate:
    """The ideal's certificate, built on first use and kept on the ideal,
    so that every question asked of one instance shares it: its dimension
    (read off the leading monomials of the certificate's basis), its
    eliminations and their memberships all rest on one exact basis."""
    certificate = ideal.__dict__.get("_certificate")
    if certificate is None:
        certificate = _Certificate(ideal)
        object.__setattr__(ideal, "_certificate", certificate)
    return certificate


def _basis_elems(ideal: Ideal, codec):
    """Reduced basis as packed dicts under `codec`.

    A principal ideal's reduced basis is its generator, made primitive
    with a positive leading coefficient as `_to_engine` leaves it; any
    other ideal takes a modular chain."""
    if len(ideal.generators) == 1:
        return [_to_engine(ideal.generators[0], codec)]
    return _modular_chain(_certificate(ideal), codec)[frozenset()]


def buchberger(ideal: Ideal) -> GroebnerBasis:
    """Reduced Groebner basis of `ideal` under lex with the variables in ring
    order.

    Basis elements come out normalized (primitive integer coefficients with
    positive leading coefficient) and sorted by ascending leading monomial.
    """
    ring = ideal.ring
    codec = _codec((i,) for i in range(ring.nvars))
    final = tuple(
        _from_engine(t, codec, ring) for t in _basis_elems(ideal, codec)
    )
    return GroebnerBasis(ring, final)


def graded_basis(ideal: Ideal) -> list:
    """Reduced basis under the graded order used for dimension counts.

    Returns [1] when 1 is in the ideal.  On homogeneous generators the
    result is exact whenever it is at most _EXACT_CHECK_BIT_CAP bits (see
    `_Certificate`), which is how membership certificates are built; on
    any others, whenever the ideal's certificate is.
    """
    ring = ideal.ring
    codec = _codec((range(ring.nvars),))
    return [_from_engine(t, codec, ring) for t in _basis_elems(ideal, codec)]


def _eliminations(ideal: Ideal, drops):
    """Reduced bases of the ideal's intersections with the subrings free of
    each set of variables in `drops`, from one modular chain, each under
    graded reverse-lex on its kept variables in reverse ring order.

    The variables of a set are dropped one stage at a time, and sets share
    the stages of the variables they have in common: the chain plans its
    tree at its first prime, the variable that the most sets contain
    first, and at a root tie that changes the tree the variable whose
    one-variable stage does the least work there, which a race of those
    stages finds without running the losers to their end (see `_plan` and
    `_race`).  The chain starts from the certificate's basis under the
    certificate's own codec, not from the generators: modulo every prime
    used it keeps every relation of the ideal, so no stage loses one (see
    `_modular_chain`).  No graded basis of that seed is computed: each root
    stage reduces the seed itself under its own block order, in full at
    the first prime and by replay at the others.  Only the empty set,
    which drops nothing, takes a graded basis, under `graded_basis`'s
    order.  Returns {drop: list of polynomials} ([1] for every set when
    1 is in the ideal); the ideal's certificate proved them.
    """
    ring = ideal.ring
    codec = _codec((range(ring.nvars),))
    lifted = _modular_chain(_certificate(ideal), codec, drops)
    # every codec of the ring keeps the plain packing in a key's low slots
    return {
        d: [_from_engine(t, codec, ring) for t in elems]
        for d, elems in lifted.items()
    }


def eliminate(ideal: Ideal, keep) -> list:
    """Reduced basis of the intersection with the subring on the kept
    variables, under graded reverse-lex on them in reverse ring order.

    One modular chain computes it (see `_modular_chain`): for each prime,
    one stage per eliminated variable, the first on the certificate's
    basis, whose block order puts that variable alone in the leading
    block, so the elements free of it generate the stage's elimination
    ideal.  Only the final intersection is lifted to the rationals, and it
    is certified to lie in the ideal by an exact membership test (a
    warning of category UncertifiedResult says when the test is too large
    to run).  Returns [1] when 1 is in the ideal.

    Each element is made primitive with a positive leading coefficient
    under that order, so with z after x in the ring the intersection
    <x - z> comes back as [-x + z].
    """
    ring = ideal.ring
    n = ring.nvars
    keep = frozenset(keep)
    if not keep or not all(isinstance(i, int) and 0 <= i < n for i in keep):
        raise ValueError("keep must be a nonempty set of variable indices")
    drop = frozenset(i for i in range(n) if i not in keep)
    return _eliminations(ideal, [drop])[drop]


def affine_dimension(ideal: Ideal) -> int:
    """Krull dimension of the zero set; -1 when the zero set is empty.

    Computed combinatorially from the leading monomials of the ideal's
    certificate basis, a Groebner basis under the graded order: the
    dimension is the largest size of a variable subset that meets the
    support of no leading monomial.  Above _EXACT_CHECK_BIT_CAP that basis
    rests on fresh-prime agreement, and so does the dimension, which is
    then warned.
    """
    certificate = _certificate(ideal)
    codec = certificate.codec
    masks = [
        sum(1 << i for i, e in enumerate(codec.unpack(max(t))) if e)
        for t in certificate.basis()
    ]
    best = -1
    for subset in range(1 << codec.nvars):
        if all(mask & ~subset for mask in masks):
            best = max(best, bin(subset).count("1"))
    if not certificate.exact():
        certificate.uncertified(
            "the unit ideal rests on two prime votes" if best < 0
            else "a dimension of %d rests on fresh-prime agreement" % best
        )
    return best


def with_rabinowitsch(ideal: Ideal, h: Polynomial) -> Ideal:
    """Adjoin t*h - 1 in a ring with a fresh variable t prepended.

    The zero set of the result is the part of V(ideal) outside V(h); the
    fresh variable sits first, and a chain stage eliminates it like any
    other variable (see `_eliminations`); a stage that keeps it orders it
    last (`_stage_codec`).  Every generator is relabeled, not recomputed:
    t*h - 1 is h's terms raised by t, and -1.
    """
    if h.ring != ideal.ring:
        raise ValueError("h lives outside the ideal's ring")
    if h.is_zero():
        raise ValueError("localization requires a nonzero h")
    name = fresh_variable_name(ideal.ring.variables, "t")
    new_ring = extend_ring(ideal.ring, name, front=True)
    lifted = [Polynomial(new_ring, {(0,) + m: c for m, c in g.terms.items()})
              for g in ideal.generators]
    local = {(1,) + m: c for m, c in h.terms.items()}
    local[(0,) * new_ring.nvars] = Fraction(-1)
    lifted.append(Polynomial(new_ring, local))
    return Ideal(new_ring, lifted)
