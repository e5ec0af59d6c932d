"""Univariate polynomials over the rationals: exact gcd, squarefree part,
rational roots, and simultaneous numeric root approximation.

The canonical form used throughout is the primitive integer form: coprime
integer coefficients with a positive leading coefficient.  The constant
polynomial 1 plays the role of "no roots".
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .polynomials import Polynomial, PolynomialRing, _primitive

ABERTH_ITERATION_CAP = 200
ABERTH_ANGLE_OFFSET = 0.4
# past this binary exponent a coefficient, or a root's power z**deg, may
# leave the float range
FLOAT_EXPONENT_CAP = 960
# the ring a polynomial in the value coordinate z is written in
_Z = PolynomialRing(("z",))


class UnivariatePolynomial:
    """Dense univariate polynomial; coefficients ascending, exact rationals."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePolynomial instances are immutable")

    @classmethod
    def zero(cls) -> "UnivariatePolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "UnivariatePolynomial":
        return cls((1,))

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_one(self) -> bool:
        return self.coefficients == (Fraction(1),)

    def degree(self):
        if not self.coefficients:
            return -math.inf
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; works for Fraction and complex arguments."""
        total = 0 * x if not isinstance(x, Fraction) else Fraction(0)
        for c in reversed(self.coefficients):
            if isinstance(x, Fraction):
                total = total * x + c
            else:
                total = total * x + complex(c)
        return total

    def __eq__(self, other):
        if isinstance(other, UnivariatePolynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, (int, Fraction)):
            return self == UnivariatePolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        out = []
        for i in range(n):
            x = a[i] if i < len(a) else Fraction(0)
            y = b[i] if i < len(b) else Fraction(0)
            out.append(x + y)
        return UnivariatePolynomial(out)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return UnivariatePolynomial(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        div = other.coefficients
        dd = len(div) - 1
        lead = div[-1]
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            shift = len(rem) - 1 - dd
            factor = rem[-1] / lead
            quo[shift] = factor
            for i in range(dd + 1):
                rem[shift + i] -= factor * div[i]
            while rem and rem[-1] == 0:
                rem.pop()
        return UnivariatePolynomial(quo), UnivariatePolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            [c * i for i, c in enumerate(self.coefficients)][1:]
        )

    def canonical(self) -> "UnivariatePolynomial":
        """Primitive integer form with positive leading coefficient."""
        return UnivariatePolynomial(self.integer_coefficients())

    def integer_coefficients(self):
        """Coefficients of the canonical form as plain ints, ascending."""
        return tuple(_primitive(dict(enumerate(self.coefficients))).values())

    def __str__(self):
        terms = {(e,): c for e, c in enumerate(self.coefficients) if c}
        return str(Polynomial(_Z, terms))

    def __repr__(self):
        return "UnivariatePolynomial(%s)" % self


def _coerce(value):
    if isinstance(value, UnivariatePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return UnivariatePolynomial((value,))
    return None


def gcd_univar(p: UnivariatePolynomial, q: UnivariatePolynomial):
    """Canonical greatest common divisor via the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.canonical()


def squarefree_part(p: UnivariatePolynomial) -> UnivariatePolynomial:
    """p divided by gcd(p, p'); same roots, all simple, canonical form."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    if p.degree() == 0:
        return UnivariatePolynomial((1,))
    g = gcd_univar(p, p.derivative())
    quo, rem = divmod(p, g)
    assert rem.is_zero()
    return quo.canonical()


def rational_roots(p: UnivariatePolynomial):
    """All exact rational roots, each verified by exact evaluation.

    The rational roots of a squarefree integer polynomial of degree d with
    leading coefficient lc are y/lc for the integer roots y of its monic
    transform q(y) = lc^(d-1) * p(y/lc).  Those are found p-adically (Loos,
    SIAM J. Comput. 12, 1983): the roots of q modulo a small prime at which
    they are all simple are Hensel-lifted past twice the Cauchy bound of q,
    and each lifted candidate is checked exactly.
    """
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    coeffs = squarefree_part(p).integer_coefficients()
    roots = []
    if coeffs[0] == 0:  # a simple root at zero
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots
    d = len(coeffs) - 1
    lc = coeffs[-1]
    q = [c * lc ** (d - 1 - i) for i, c in enumerate(coeffs[:-1])] + [1]
    dq = [i * c for i, c in enumerate(q)][1:]
    bound = 1 + max(abs(c) for c in q[:-1])
    prime, residues = _simple_roots_mod_prime(q, dq)
    for r in residues:
        y = _hensel_lift(q, dq, r, prime, 2 * bound)
        if _horner(q, y) == 0:
            roots.append(Fraction(y, lc))
    return sorted(roots)


def _horner(coeffs, x, modulus=None):
    """Horner's rule on ascending coefficients, reduced modulo `modulus`
    at each step when one is given; x may be an int, a complex number or
    a polynomial.  No coefficients give the int 0."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
        if modulus is not None:
            total %= modulus
    return total


def _simple_roots_mod_prime(q, dq):
    """The first odd prime at which every root of q is simple, with those
    roots; such a prime exists because q is squarefree."""
    prime = 3
    while True:
        if all(prime % k for k in range(3, math.isqrt(prime) + 1, 2)):
            residues = [r for r in range(prime) if not _horner(q, r, prime)]
            if all(_horner(dq, r, prime) for r in residues):
                return prime, residues
        prime += 2


def _hensel_lift(q, dq, r, prime, bound):
    """Newton-lift the simple root r of q modulo prime until the modulus
    exceeds bound; returns the symmetric residue."""
    modulus = prime
    while modulus <= bound:
        modulus *= modulus
        inverse = pow(_horner(dq, r, modulus), -1, modulus)
        r = (r - _horner(q, r, modulus) * inverse) % modulus
    return r - modulus if 2 * r > modulus else r


def _exponent_bound(c: Fraction) -> int:
    """An integer e with |c| < 2**e, for nonzero c."""
    return c.numerator.bit_length() - c.denominator.bit_length() + 1


def _float_shift(coefficients):
    """None when plain float arithmetic can hold the polynomial and its
    roots; otherwise the exponent s for which every coefficient of the
    monic polynomial in w = z / 2**s is below 1 in absolute value, so that
    every root has |w| < 2 (Fujiwara's bound)."""
    deg = len(coefficients) - 1
    lead = coefficients[-1]
    shift = max(
        (
            -(-_exponent_bound(c / lead) // (deg - i))
            for i, c in enumerate(coefficients[:-1])
            if c
        ),
        default=0,
    )
    if shift * deg <= FLOAT_EXPONENT_CAP and all(
        abs(_exponent_bound(c)) <= FLOAT_EXPONENT_CAP for c in coefficients if c
    ):
        return None
    return shift


def _ldexp_or_inf(x: float, shift: int):
    """(x * 2**shift, True), or a signed infinity and False on overflow."""
    try:
        return math.ldexp(x, shift), True
    except OverflowError:
        return math.copysign(math.inf, x), False


def approx_roots_with_status(p: UnivariatePolynomial, tolerance: float = 1e-10):
    """(roots, converged): converged means every residual met the tolerance.

    Deterministic simultaneous (Aberth-style) root approximation; the roots
    come sorted by (real, imaginary).  A nonzero constant has no roots, and
    the zero polynomial raises ValueError.
    A residual is judged relative to the polynomial's size at the root (the
    sum of |c_i| |z|^i of the monic polynomial), so small roots are held to
    the same relative accuracy as large ones.  A polynomial whose
    coefficients or roots would leave the float range is solved for
    w = z / 2**s instead, its monic coefficients scaled exactly before they
    are rounded to floats.  A root 2**s * w that still does not fit a float
    comes back with infinite parts and counts as unconverged.
    """
    if p.is_zero():
        raise ValueError("every number is a root of the zero polynomial")
    deg = p.degree()
    if deg == 0:
        return [], True
    shift = _float_shift(p.coefficients)
    if shift is None:
        coeffs = [complex(c) for c in p.coefficients]
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
    else:
        lead = p.coefficients[-1]
        monic = [
            complex(c / lead * Fraction(2) ** (shift * (i - deg)))
            for i, c in enumerate(p.coefficients)
        ]
    dp = [c * i for i, c in enumerate(monic)][1:]
    radius = 1.0 + max(abs(c) for c in monic[:-1]) if deg >= 1 else 1.0
    points = [
        radius
        * cmath.exp(1j * (2.0 * math.pi * k / deg + ABERTH_ANGLE_OFFSET))
        for k in range(deg)
    ]
    scale_coeffs = [abs(c) for c in monic]

    def _residual_ok(x):
        scale = 0.0
        ax = abs(x)
        powv = 1.0
        for c in scale_coeffs:
            scale += c * powv
            powv *= ax
        return abs(_horner(monic, x)) <= tolerance * scale

    converged = False
    for _ in range(ABERTH_ITERATION_CAP):
        moved = 0.0
        for k in range(deg):
            z = points[k]
            pv = _horner(monic, z)
            pd = _horner(dp, z)
            if pd == 0:
                points[k] = z * (1.0 + 1e-8) + 1e-8
                moved = math.inf
                continue
            newton = pv / pd
            acc = 0j
            for j in range(deg):
                if j != k:
                    diff = z - points[j]
                    if diff == 0:
                        diff = 1e-12
                    acc += 1.0 / diff
            denom = 1.0 - newton * acc
            if denom == 0:
                step = newton
            else:
                step = newton / denom
            points[k] = z - step
            moved = max(moved, abs(step))
        if all(_residual_ok(z) for z in points):
            converged = True
            break
        if moved == 0.0:
            break
    if not converged:
        converged = all(_residual_ok(z) for z in points)
    if shift:
        for k, w in enumerate(points):
            re, re_fits = _ldexp_or_inf(w.real, shift)
            im, im_fits = _ldexp_or_inf(w.imag, shift)
            points[k] = complex(re, im)
            converged = converged and re_fits and im_fits
    ordered = sorted(points, key=lambda z: (z.real, z.imag))
    return ordered, converged
