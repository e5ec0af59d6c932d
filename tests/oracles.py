"""Self-contained reference implementations used to cross-check the package.

Everything here but the last two sections is deliberately independent of the
package internals: dense list-based univariate arithmetic over Fraction, a
Sylvester-determinant resultant for bivariate integer polynomials,
S-polynomials and multivariate division on tuple monomials under lex with
the variables in ring order, the value shift of the metamorphic tests,
Miller-Rabin, the reference for the engine's Proth primes, and the curve
builders in Fraction arithmetic on `Polynomial`, the reference for the
integer curve layer (derivatives, restriction to a hyperplane, linear
substitution by the multinomial theorem, the combined derivative
hypersurfaces, localization and graph generators, and Gaussian elimination
as the rank check).
Keeping these paths separate from the Groebner engine's packed monomials
and modular arithmetic makes agreement between the two a meaningful check.
The last three sections work on the engine's packed keys: a second
division kernel, the eager one, so the engine's own reducer can be compared
with it term for term, Buchberger's algorithm with the Gebauer-Moller
criteria, which read only leading monomials, the reference for the bases
of the engine's signature run, and the fresh-prime vote as a reduction of
the last candidate modulo p, the reference for `_CrtState.lift`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import math

from polarvalues import groebner
from polarvalues.groebner import Ideal
from polarvalues.polynomials import (
    Polynomial,
    PolynomialRing,
    extend_ring,
    fresh_variable_name,
    lift_polynomial,
    monomial_add,
)
from polarvalues.univar import UnivariatePolynomial


# ---------------------------------------------------------------------------
# dense univariate polynomials: list of Fractions, index = exponent


def u_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def u_degree(p) -> int:
    return len(p) - 1


def u_is_zero(p) -> bool:
    return not p


def u_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return u_trim(out)


def u_scale(p, c):
    c = Fraction(c)
    return u_trim([x * c for x in p])


def u_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return u_trim(out)


def u_divmod(p, q):
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = u_trim([Fraction(x) for x in p])
    quo = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    inv_lead = 1 / Fraction(q[-1])
    while rem and len(rem) >= len(q):
        shift_amt = len(rem) - len(q)
        factor = rem[-1] * inv_lead
        quo[shift_amt] += factor
        for i, c in enumerate(q):
            rem[shift_amt + i] -= factor * c
        u_trim(rem)
    return u_trim(quo), rem


def u_divides(p, q) -> bool:
    """True when p divides q (p nonzero)."""
    _, rem = u_divmod(q, p)
    return not rem


def u_gcd(p, q):
    """Monic gcd; gcd(0, 0) = 0."""
    a = u_trim([Fraction(x) for x in p])
    b = u_trim([Fraction(x) for x in q])
    while b:
        _, r = u_divmod(a, b)
        a, b = b, r
    if a:
        a = u_scale(a, 1 / a[-1])
    return a


def u_derivative(p):
    return u_trim([i * c for i, c in enumerate(p)][1:])


def u_squarefree(p):
    """Monic radical: same roots, all simple."""
    p = u_trim([Fraction(x) for x in p])
    if len(p) <= 1:
        return [Fraction(1)] if p else []
    g = u_gcd(p, u_derivative(p))
    q, _ = u_divmod(p, g)
    return u_scale(q, 1 / q[-1]) if q else []


def u_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# bivariate polynomials: dict (deg_x, deg_y) -> Fraction


def b_from_terms(terms):
    out = {}
    for (i, j), c in terms.items():
        c = Fraction(c)
        if c:
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def b_degree_x(p) -> int:
    return max((i for i, _ in p), default=-1)


def b_x_coefficient(p, i):
    """The coefficient of x^i as a dense polynomial in y."""
    top = max((j for (a, j) in p if a == i), default=-1)
    out = [Fraction(0)] * (top + 1)
    for (a, j), c in p.items():
        if a == i:
            out[j] += c
    return u_trim(out)


def sylvester_resultant_x(p, q):
    """Res_x(p, q) as a dense polynomial in y, via the Sylvester matrix.

    The matrix is built from the formal x-degrees of p and q; its entries
    are polynomials in y and the determinant is expanded by cofactors with
    memoization on the remaining-column mask.
    """
    m = b_degree_x(p)
    n = b_degree_x(q)
    if m < 0 or n < 0:
        raise ValueError("resultant of a zero polynomial")
    if m == 0 and n == 0:
        return [Fraction(1)]
    size = m + n
    rows = []
    pc = [b_x_coefficient(p, i) for i in range(m, -1, -1)]
    qc = [b_x_coefficient(q, i) for i in range(n, -1, -1)]
    for r in range(n):
        row = [[] for _ in range(size)]
        for k, c in enumerate(pc):
            row[r + k] = c
        rows.append(row)
    for r in range(m):
        row = [[] for _ in range(size)]
        for k, c in enumerate(qc):
            row[r + k] = c
        rows.append(row)

    memo = {}

    def det(row: int, colmask: int):
        if row == size:
            return [Fraction(1)]
        key = colmask
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = []
        position = 0
        for col in range(size):
            bit = 1 << col
            if not colmask & bit:
                continue
            entry = rows[row][col]
            if entry:
                sub = det(row + 1, colmask & ~bit)
                term = u_mul(entry, sub)
                total = u_add(
                    total, term if position % 2 == 0 else u_scale(term, -1)
                )
            position += 1
        memo[key] = total
        return total

    return det(0, (1 << size) - 1)


# ---------------------------------------------------------------------------
# S-polynomials and multivariate division on tuple monomials


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def monomial_divides(a: tuple, b: tuple) -> bool:
    """True when the monomial with exponents `a` divides the one with `b`."""
    return all(x <= y for x, y in zip(a, b))


def monomial_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _leading_term(p: Polynomial):
    """(exponents, coefficient) of p's largest monomial under lex."""
    m = max(p.terms)
    return m, p.terms[m]


def s_polynomial(p: Polynomial, q: Polynomial) -> Polynomial:
    """The classical S-polynomial under lex, with exact coefficient division."""
    if p.ring != q.ring:
        raise ValueError("polynomials live in different rings")
    if p.is_zero() or q.is_zero():
        raise ValueError("S-polynomial requires nonzero inputs")
    ltp, cp = _leading_term(p)
    ltq, cq = _leading_term(q)
    big = monomial_lcm(ltp, ltq)
    mp = monomial_sub(big, ltp)
    mq = monomial_sub(big, ltq)
    out = {}
    for m, c in p.terms.items():
        out[monomial_add(m, mp)] = c / cp
    for m, c in q.terms.items():
        k = monomial_add(m, mq)
        v = out.get(k, 0) - c / cq
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return Polynomial(p.ring, out)


def graded_key(e: tuple) -> tuple:
    """Graded reverse-lex order on exponent tuples as a sort key: total
    degree, then the fewer of the last variable, then of the one before."""
    return (sum(e),) + tuple(-x for x in reversed(e))


def value_block_key(e: tuple) -> tuple:
    """The block order of a graph ideal's certificate as a sort key: the
    last variable's exponent first, then graded reverse-lex on the rest."""
    return (e[-1],) + graded_key(e[:-1])


def normal_form(p: Polynomial, basis, order=None) -> Polynomial:
    """Remainder of p under multivariate division by `basis` under lex, or
    under the order that the key function `order` on exponent tuples
    gives.

    The top term is divided by the first basis element whose leading
    monomial divides it.  The difference p - normal_form(p) lies in the
    ideal generated by the basis, and no remainder term is divisible by any
    basis leading monomial.
    """
    ring = p.ring
    reducers = []
    for b in basis:
        if b.ring != ring:
            raise ValueError("basis element outside p's ring")
        if not b.is_zero():
            lt = max(b.terms, key=order)
            reducers.append((lt, b.terms[lt], b.terms))
    work = dict(p.terms)
    result = {}
    while work:
        m = max(work, key=order)
        c = work[m]
        hit = None
        for lt, lc, terms in reducers:
            if monomial_divides(lt, m):
                hit = (lt, lc, terms)
                break
        if hit is None:
            del work[m]
            result[m] = c
            continue
        lt, lc, terms = hit
        factor = c / lc
        shiftm = monomial_sub(m, lt)
        for mg, cg in terms.items():
            k = monomial_add(mg, shiftm)
            v = work.get(k, 0) - factor * cg
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    return Polynomial(ring, result)


def shift(p: UnivariatePolynomial, c) -> UnivariatePolynomial:
    """Return q with q(z) = p(z - c); roots move by +c."""
    c = Fraction(c)
    x_minus_c = UnivariatePolynomial((-c, 1))
    result = UnivariatePolynomial(())
    for coeff in reversed(p.coefficients):
        result = result * x_minus_c + coeff
    return result


# ---------------------------------------------------------------------------
# primality by Miller-Rabin


# Miller-Rabin with these bases is proven deterministic below about 2^78
# (3.18 * 10^23); above that a composite passes each further random base
# with probability at most 1/4.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, bases=MR_BASES) -> bool:
    """Whether n passes the strong probable-prime test to every base."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# curve builders in Fraction arithmetic on tuple monomials


def partial(p: Polynomial, i: int) -> Polynomial:
    """d/dx_i of p, term by term."""
    terms = {}
    for m, c in p.terms.items():
        if m[i]:
            dm = list(m)
            dm[i] -= 1
            terms[tuple(dm)] = c * m[i]
    return Polynomial(p.ring, terms)


def restrict(p: Polynomial, i: int) -> Polynomial:
    """p on x_i = 0, in the ring without x_i."""
    names = p.ring.variables
    ring = PolynomialRing(names[:i] + names[i + 1:])
    return Polynomial(ring, {m[:i] + m[i + 1:]: c
                             for m, c in p.terms.items() if not m[i]})


def invertible(rows) -> bool:
    """Gaussian elimination rank check with exact rational arithmetic."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return False
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return True


def linear_power(row, e: int) -> dict:
    """Terms of (sum_j row[j] * x_j)^e by the multinomial theorem."""
    n = len(row)
    support = [j for j in range(n) if row[j]]
    last = support[-1]
    terms = {}
    exps = [0] * n

    def expand(k, left, coeff):
        # distribute the remaining degree over support[k:]
        j = support[k]
        if j == last:
            exps[j] = left
            terms[tuple(exps)] = coeff * row[j] ** left
            return
        a = row[j]
        scale = Fraction(1)
        for t in range(left + 1):
            exps[j] = t
            expand(k + 1, left - t, coeff * math.comb(left, t) * scale)
            scale *= a
        exps[j] = 0

    expand(0, e, Fraction(1))
    return terms


def substitute_linear(p: Polynomial, matrix) -> Polynomial:
    """p with x_i replaced by sum_j matrix[i][j] * x_j; ValueError when the
    matrix is singular."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not invertible(rows):
        raise ValueError("substitution matrix is singular")
    ring = p.ring
    result = ring.zero()
    for m, c in p.terms.items():
        term = ring.constant(c)
        for i, e in enumerate(m):
            if e:
                term = term * Polynomial(ring, linear_power(rows[i], e))
        result = result + term
    return result


def super_polar(f: Polynomial, a, b) -> list:
    """g_i = sum_j a[i][j] df/dx_j + sum_{j,k} b[i][j][k] x_k df/dx_j."""
    ring = f.ring
    n = ring.nvars
    partials = [partial(f, j) for j in range(n)]
    xs = ring.gens()
    gens = []
    for i in range(len(a)):
        g = ring.zero()
        for j in range(n):
            g = g + a[i][j] * partials[j]
            for k in range(n):
                g = g + b[i][j][k] * xs[k] * partials[j]
        gens.append(g)
    return gens


def rabinowitsch(ideal: Ideal, h: Polynomial) -> Ideal:
    """The ideal with t*h - 1 adjoined, t a fresh first variable."""
    name = fresh_variable_name(ideal.ring.variables, "t")
    ring = extend_ring(ideal.ring, name, front=True)
    gens = [lift_polynomial(g, ring) for g in ideal.generators]
    gens.append(ring.variable(name) * lift_polynomial(h, ring) - ring.one())
    return Ideal(ring, gens)


def graph(base: Ideal, f: Polynomial):
    """(ring, generators, shift, scale) of the graph ideal (base,
    scale*(f - shift) - z): shift f's constant term and scale the positive
    rational that makes scale*(f - shift) a primitive integer polynomial."""
    z_name = fresh_variable_name(base.ring.variables, "z")
    ring = extend_ring(base.ring, z_name, front=False)
    shift = f.terms.get((0,) * f.ring.nvars, Fraction(0))
    rest = [c for m, c in f.terms.items() if any(m)]
    scale = Fraction(math.lcm(*(c.denominator for c in rest)),
                     math.gcd(*(c.numerator for c in rest)) or 1)
    gens = [lift_polynomial(g, ring) for g in base.generators]
    gens.append(lift_polynomial((f - shift) * scale, ring)
                - ring.variable(z_name))
    return ring, tuple(g for g in gens if g), shift, scale


# ---------------------------------------------------------------------------
# eager division modulo a prime on the engine's packed keys


def mod_p_normal_form(target, basis, p, guard):
    """Monic normal form modulo p of a packed dict by packed `basis` dicts.

    The first basis element whose leading key divides the top term reduces
    it (a divides b when ((b | guard) - a) & guard == guard), and every
    updated coefficient is reduced modulo p at once, a zero one deleted.
    The working terms sit in a max-heap that may hold a key twice or a key
    whose coefficient is gone; such entries are popped and skipped.
    """
    reducers = []
    for t in basis:
        lt = max(t)
        reducers.append((lt, pow(t[lt], p - 2, p), t))
    coeff = {m: c % p for m, c in target.items() if c % p}
    heap = [-m for m in coeff]
    heapq.heapify(heap)
    result = {}
    while heap:
        m = -heap[0]
        c = coeff.get(m)
        if not c:
            heapq.heappop(heap)
            continue
        for hit in reducers:
            if ((m | guard) - hit[0]) & guard == guard:
                break
        else:
            heapq.heappop(heap)
            result[m] = c
            del coeff[m]
            continue
        lt, lc_inv, terms = hit
        shift = m - lt
        factor = c * lc_inv % p
        for mg, cg in terms.items():
            k = mg + shift
            old = coeff.get(k)
            v = ((old or 0) - factor * cg) % p
            if v:
                coeff[k] = v
                if not old:
                    heapq.heappush(heap, -k)
            elif old:
                del coeff[k]
    if not result:
        return result
    inv = pow(result[max(result)], p - 2, p)
    return {m: c * inv % p for m, c in result.items()}


# ---------------------------------------------------------------------------
# Buchberger with the Gebauer-Moller criteria on the engine's packed keys


def reference_buchberger(gens, engine):
    """Reduced basis of packed generators by Buchberger's algorithm.

    Pairs are pruned by the Gebauer-Moller update (`groebner._update_pairs`,
    which reads only leading monomials) and taken by sugar degree, then by
    install indices; each S-polynomial is reduced by the first installed
    element whose leading monomial divides its top term.  `engine` is a
    `_ModularArith` or an `_IntegerArith`: elements are monic modulo p and
    primitive over the integers, and the S-polynomial scales both sides by
    their leading coefficients, which are 1 modulo p.  A constant ends the
    run.  Returns the reduced basis sorted by ascending leading key, as the
    engine's signature run does.
    """
    codec = engine.codec
    if isinstance(engine, groebner._ModularArith):
        # the modular engine records every step; the oracle drops them
        def reduce(target, reducers):
            return engine.reduce(target, reducers, [])
    else:
        reduce = engine.reduce
    spoly = groebner._IntegerArith(codec).spoly
    basis = []
    plain_lts = []
    sugars = []
    reducers = []
    pairs = {}

    def install(terms, sugar):
        entry = engine.reducer_entry(terms)
        groebner._update_pairs(
            plain_lts, sugars, pairs, codec.plain(entry[0]), sugar, codec
        )
        basis.append(terms)
        reducers.append(entry)

    for t in gens:
        t = reduce(t, reducers)
        if t:
            install(t, max(codec.degree(m) for m in t))
            if max(t) == codec.one_key:
                pairs.clear()  # 1 divides every S-polynomial
                break
    while pairs:
        (i, j), (sugar, _, _) = min(
            pairs.items(), key=lambda kv: (kv[1], kv[0])
        )
        del pairs[(i, j)]
        r = reduce(spoly(basis[i], basis[j]), reducers)
        if r:
            install(r, sugar)
            if max(r) == codec.one_key:
                pairs.clear()
    # inter-reduce the minimal basis in one ascending pass, as the engine
    # does; the integer engine records no schedules for `_inter_reduce`
    out = []
    reduced = []
    for k in groebner._minimal(basis, codec.guard):
        t = reduce(basis[k], reduced)
        out.append(t)
        reduced.append(engine.reducer_entry(t))
    return out


# ---------------------------------------------------------------------------
# the fresh-prime vote on the engine's packed keys


def candidate_mod_p(candidate, p):
    """Candidate (primitive integer dicts) reduced mod p as monic dicts, or
    None when p divides a leading coefficient.

    A fresh prime votes for the last candidate when this equals its reduced
    basis; `_CrtState.lift` votes by reconstructing at the larger modulus
    instead, and returns the candidate exactly when this vote passes."""
    out = []
    for elem in candidate:
        lc = elem[max(elem)] % p
        if not lc:
            return None
        inv = pow(lc, -1, p)
        target = {}
        for mono, c in elem.items():
            v = c * inv % p
            if v:
                target[mono] = v
        out.append(target)
    return out
