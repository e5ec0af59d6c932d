"""Sparse multivariate polynomial arithmetic over the rationals.

Polynomials are immutable maps from exponent tuples to nonzero Fraction
coefficients, tagged with a ring descriptor (the variable names).  The
coefficients are always rationals: ints and Fractions are accepted, anything
else raises TypeError.  Display lists terms in lex order with the variables
in ring order; the Groebner engine packs its own monomial orders.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record

NEG_INF = -math.inf


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
        terms = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            dm = list(m)
            dm[var_index] = e - 1
            dc = c * e
            if dc:
                terms[tuple(dm)] = dc
        return Polynomial(self.ring, terms)

    def restrict_hyperplane(self, var_index: int) -> "Polynomial":
        """Set one variable to zero and drop it from the ring."""
        self._check_var(var_index)
        new_vars = (
            self.ring.variables[:var_index] + self.ring.variables[var_index + 1 :]
        )
        new_ring = PolynomialRing(new_vars)
        terms = {}
        for m, c in self.terms.items():
            if m[var_index]:
                continue
            terms[m[:var_index] + m[var_index + 1 :]] = c
        return Polynomial(new_ring, terms)

    def substitute_linear(self, matrix) -> "Polynomial":
        """Replace variable i by sum_j matrix[i][j] * x_j; matrix must be invertible.

        Each power of a row's linear form is expanded by the multinomial
        theorem, once per (variable, exponent) that occurs in the
        polynomial, and the powers of one term are multiplied together.
        """
        ring = self.ring
        n = ring.nvars
        rows = [[_rational(entry) for entry in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape must be %d x %d" % (n, n))
        if not _invertible(rows):
            raise ValueError("substitution matrix is singular")
        powers = {}
        result = ring.zero()
        for m, c in self.terms.items():
            term = ring.constant(c)
            for i, e in enumerate(m):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = Polynomial(
                            ring, _linear_power(rows[i], e)
                        )
                    term = term * power
            result = result + term
        return result

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


def _linear_power(row, e: int) -> dict:
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
    # expand refers to itself, a cycle that would keep terms alive until
    # the cycle collector runs
    del expand
    return terms


def _invertible(rows) -> bool:
    """Gaussian elimination rank check with exact rational arithmetic."""
    n = len(rows)
    a = [list(r) for r in rows]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            return False
        a[col], a[pivot] = a[pivot], a[col]
        inv_head = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv_head
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
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
