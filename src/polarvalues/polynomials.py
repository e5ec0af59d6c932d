"""Sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable maps from exponent tuples to nonzero Fraction
coefficients, tagged with a ring descriptor (the variable names).  The
coefficients are always rationals: ints and Fractions are accepted, anything
else raises TypeError.  Display lists terms in lex order with the variables
in ring order; the Groebner engine packs its own monomial orders.

Derivatives, restrictions and linear substitutions are computed in
integers: a polynomial is written as shift + F/scale with F a primitive
integer polynomial on plain packings (`_IntegerMap`), and each result is
turned back into Fractions once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record

NEG_INF = -math.inf

# plain packing, shared with the Groebner engine: 16 bits per variable,
# variable 0 in the most significant slot, so the product of two monomials
# is the sum of their packings.  The top bit of each slot is the engine's
# divisibility guard, so exponents stay below 2**15.
_SLOT_BITS = 16
_SLOT_MASK = 0xFFFF
_MAX_EXPONENT = 0x7FFF


def _rational(value) -> Fraction:
    """`value` as a Fraction; only ints and Fractions are rationals."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("cannot coerce %r into the rational field" % (value,))


class PolynomialRing(Record):
    """Ring descriptor: an ordered tuple of variable names over the rationals."""

    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = self.variables
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        for name in names:
            if not name or not isinstance(name, str):
                raise ValueError("variable names must be nonempty strings")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = _rational(value)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple:
        return tuple(self.variable(v) for v in self.variables)

    def polynomial(self, terms: dict) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}."""
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars or any(
                e < 0 or not isinstance(e, int) for e in exps
            ):
                raise ValueError("bad exponent tuple %r" % (exps,))
            c = _rational(coeff)
            if c:
                clean[exps] = c
        return Polynomial(self, clean)


def monomial_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    """An immutable sparse polynomial attached to a PolynomialRing.

    The constructor keeps `terms` as given, so every coefficient must be a
    nonzero Fraction, and it raises ValueError on a zero one;
    `PolynomialRing.polynomial` builds one from arbitrary rational
    coefficients, dropping zeros.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        if not all(terms.values()):
            raise ValueError("a Polynomial stores no zero coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def total_degree(self):
        """Largest exponent sum, or -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def degree_in(self, var_index: int) -> int:
        self._check_var(var_index)
        if not self.terms:
            return NEG_INF
        return max(m[var_index] for m in self.terms)

    def support_variables(self):
        """Indices of variables that actually occur."""
        seen = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return seen

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = s + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_add(ma, mb)
                c = ca * cb
                s = terms.get(m)
                if s is None:
                    if c:
                        terms[m] = c
                else:
                    s = s + c
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and substitution ------------------------------------

    def _check_var(self, var_index: int):
        if not 0 <= var_index < self.ring.nvars:
            raise ValueError("variable index %d out of range" % var_index)

    def partial_derivative(self, var_index: int) -> "Polynomial":
        self._check_var(var_index)
        f = _IntegerMap.of(self)
        return f.polynomial(f.partials[var_index])

    def restrict_hyperplane(self, var_index: int) -> "Polynomial":
        """Set one variable to zero and drop it from the ring."""
        self._check_var(var_index)
        return _IntegerMap.of(self).restricted(var_index).function()

    def substitute_linear(self, matrix) -> "Polynomial":
        """Replace variable i by sum_j matrix[i][j] * x_j; matrix must be
        invertible.  The work is done in integers (`_IntegerMap.substitute`)
        on the rows over their common denominator."""
        n = self.ring.nvars
        rows = [[_rational(entry) for entry in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape must be %d x %d" % (n, n))
        den = math.lcm(*(e.denominator for row in rows for e in row))
        rows = [[e.numerator * den // e.denominator for e in row] for row in rows]
        if not _invertible(rows):
            raise ValueError("substitution matrix is singular")
        return _IntegerMap.of(self).substitute(rows, den).function()

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            negative = c < 0
            body = _coeff_text(-c if negative else c, factors)
            if not parts:
                parts.append("-" + body if negative else body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _coeff_text(coeff, factors) -> str:
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    return str(coeff) + "*" + "*".join(factors)


def _pack(exps) -> int:
    """The plain packing of an exponent tuple."""
    plain = 0
    for e in exps:
        if e > _MAX_EXPONENT:
            raise ValueError("exponent %d exceeds the engine limit" % e)
        plain = (plain << _SLOT_BITS) | e
    return plain


def _unpack(plain: int, n: int) -> tuple:
    """The exponents in the low n slots; an engine key works too."""
    shifts = range(_SLOT_BITS * (n - 1), -1, -_SLOT_BITS)
    return tuple([plain >> s & _SLOT_MASK for s in shifts])


def _pdegree(m: int) -> int:
    total = 0
    while m:
        total += m & _SLOT_MASK
        m >>= _SLOT_BITS
    return total


def _primitive(p: Polynomial, key=tuple):
    """(shift, scale, terms) with p = shift + terms/scale: shift is p's
    constant term, scale > 0, and terms the primitive integer polynomial
    scale*(p - shift), a dict from key(exponent tuple) to ints; key=_pack
    keys it by plain packings."""
    constant = (0,) * p.ring.nvars
    shift = p.terms.get(constant, Fraction(0))
    rest = [(m, c) for m, c in p.terms.items() if m != constant]
    den = math.lcm(*(c.denominator for _, c in rest))
    content = math.gcd(*(c.numerator for _, c in rest)) or 1
    terms = {key(m): c.numerator * den // c.denominator // content
             for m, c in rest}
    return shift, Fraction(den, content), terms


class _IntegerMap:
    """A polynomial as shift + terms/scale, with shift a rational, scale a
    positive rational and terms an integer polynomial on plain packings,
    and the partials of terms.

    Derivatives, linear substitutions and integer combinations of partials
    are computed on these dicts, where multiplying by a monomial adds its
    packing to each key, and each result is divided by scale once, on the
    way out (`polynomial`).
    """

    def __init__(self, ring, shift, scale, terms):
        self.ring, self.shift, self.scale, self.terms = ring, shift, scale, terms
        # the offsets of the slots of x_0, ..., x_{n-1}
        self.slots = range(_SLOT_BITS * (ring.nvars - 1), -1, -_SLOT_BITS)
        self.partials = [
            {k - (1 << s): v * e for k, v in terms.items()
             if (e := k >> s & _SLOT_MASK)}
            for s in self.slots
        ]

    @classmethod
    def of(cls, p: Polynomial) -> "_IntegerMap":
        return cls(p.ring, *_primitive(p, _pack))

    def polynomial(self, terms: dict, ring=None, shift=0) -> Polynomial:
        """terms/scale + shift in `ring`: the map's own, or one with
        variables prepended, whose packings are the same."""
        ring = ring or self.ring
        n, num, den = ring.nvars, self.scale.numerator, self.scale.denominator
        out = {_unpack(k, n): Fraction(v * den, num)
               for k, v in terms.items() if v}
        if shift:
            out[(0,) * n] = shift
        return Polynomial(ring, out)

    def function(self, ring=None) -> Polynomial:
        """The polynomial itself, in its ring or as for `polynomial`."""
        return self.polynomial(self.terms, ring, self.shift)

    def combination(self, weights, out=None, unit=0) -> dict:
        """sum_j weights[j] * d/dx_j of the terms, times the monomial whose
        packing is `unit`, added into `out`."""
        out = {} if out is None else out
        for w, d in zip(weights, self.partials):
            for k, v in d.items():
                out[k + unit] = out.get(k + unit, 0) + w * v
        return out

    def substitute(self, rows, den=1) -> "_IntegerMap":
        """The polynomial with x_i replaced by sum_j rows[i][j]/den * x_j,
        rows of integers.  With d the degree of the terms, den^d times the
        new terms is an integer polynomial: each term is scaled by den to
        the degree it lacks, and multiplied by the rows' linear forms."""
        degree = max(map(_pdegree, self.terms), default=0)
        # a term's exponents sum to at most d, so no slot overflows
        if degree > _MAX_EXPONENT:
            raise ValueError("degree %d exceeds the engine limit" % degree)
        forms = [{1 << s: a for s, a in zip(self.slots, r) if a} for r in rows]
        out = {}
        for key, c in self.terms.items():
            term = {0: c if den == 1 else c * den ** (degree - _pdegree(key))}
            for s, form in zip(self.slots, forms):
                for _ in range(key >> s & _SLOT_MASK):
                    step = {}
                    for ka, va in term.items():
                        for kb, vb in form.items():
                            step[ka + kb] = step.get(ka + kb, 0) + va * vb
                    term = step
            for k, v in term.items():
                out[k] = out.get(k, 0) + v
        scale = self.scale * den**degree
        return _IntegerMap(self.ring, self.shift, scale, out)

    def restricted(self, i: int) -> "_IntegerMap":
        """The polynomial on x_i = 0, in the ring without x_i: the packings
        whose slot i is zero, that slot taken out."""
        names, s = self.ring.variables, self.slots[i]
        terms = {(k >> (s + _SLOT_BITS) << s) | (k & (1 << s) - 1): v
                 for k, v in self.terms.items() if not k >> s & _SLOT_MASK}
        ring = PolynomialRing(names[:i] + names[i + 1:])
        return _IntegerMap(ring, self.shift, self.scale, terms)


def _invertible(rows) -> bool:
    """Rank check of an integer matrix by fraction-free (Bareiss)
    elimination: each entry is a minor of the matrix, each division
    exact."""
    rows, previous = [list(r) for r in rows], 1
    for col in range(len(rows)):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        rows = [[(pivot[col] * x - r[col] * y) // previous
                 for x, y in zip(r, pivot)] for r in rows]
        previous = pivot[col]
    return True


def fresh_variable_name(taken, base: str) -> str:
    """`base` if unused, else base2, base3, ..."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 2
    while "%s%d" % (base, k) in taken:
        k += 1
    return "%s%d" % (base, k)


def extend_ring(ring: PolynomialRing, name: str, front: bool = False):
    """Ring with one extra variable, appended (or prepended when front)."""
    if name in ring.variables:
        raise ValueError("variable %r already present" % name)
    if front:
        variables = (name,) + ring.variables
    else:
        variables = ring.variables + (name,)
    return PolynomialRing(variables)


def lift_polynomial(p: Polynomial, new_ring: PolynomialRing) -> Polynomial:
    """Reinterpret p inside a ring containing all of its variables (by name)."""
    positions = []
    for name in p.ring.variables:
        if name not in new_ring.variables:
            raise ValueError("target ring lacks variable %r" % name)
        positions.append(new_ring.index(name))
    terms = {}
    for m, c in p.terms.items():
        exps = [0] * new_ring.nvars
        for pos, e in zip(positions, m):
            exps[pos] = e
        terms[tuple(exps)] = c
    return Polynomial(new_ring, terms)
