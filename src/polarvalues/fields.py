"""The coefficient field of the package, the rationals, and the primality
test behind the Groebner engine's modular primes.

Rational arithmetic is delegated to :class:`fractions.Fraction`, which already
keeps values in lowest terms with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for moduli below 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


class RationalField:
    """The field of exact rationals; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError("cannot coerce %r into the rational field" % (value,))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("RationalField",))

    def __repr__(self):
        return "QQ"


QQ = RationalField()

