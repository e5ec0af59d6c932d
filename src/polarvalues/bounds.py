"""Degree bounds on the number of detected values.

All bounds are exact integer formulas in the total degree d, the number of
variables n, and optional data about the positive-dimensional components
of the singular locus (their degrees and dimensions).
"""

from __future__ import annotations

from .record import Record


class SingularComponentData(Record):
    """Degrees and dimensions of the positive-dimensional singular components.

    components is a tuple of (degree, dimension) pairs with degree >= 1 and
    dimension >= 1; the empty tuple describes a finite (or empty) singular
    locus.
    """

    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(
            (int(d), int(s)) for d, s in self.components
        ))
        for d, s in self.components:
            if d < 1:
                raise ValueError("component degree must be at least 1")
            if s < 1:
                raise ValueError("component dimension must be at least 1")

    @classmethod
    def empty(cls) -> "SingularComponentData":
        return cls(())

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def degree_sum(self) -> int:
        return sum(d for d, _ in self.components)

    @property
    def weighted_degree_sum(self) -> int:
        return sum(d * s for d, s in self.components)


def _validate(d: int, n: int, minimum_degree: int):
    if not isinstance(d, int) or d < minimum_degree:
        raise ValueError("degree must be an integer >= %d" % minimum_degree)
    if not isinstance(n, int) or n < 2:
        raise ValueError("need at least two variables")


def bound_nk(d: int, n: int, sing: SingularComponentData = None) -> int:
    """Bound on the number of non-trivial asymptotic non-regular values."""
    sing = sing if sing is not None else SingularComponentData.empty()
    _validate(d, n, 2)
    if d == 2:
        return n - 1 - sing.weighted_degree_sum
    return ((d - 1) ** n - 1) // (d - 2) - sing.weighted_degree_sum


def bound_superpolar(d: int, n: int, sing: SingularComponentData = None) -> int:
    """Degree bound for the combined auxiliary curve construction."""
    sing = sing if sing is not None else SingularComponentData.empty()
    _validate(d, n, 2)
    if n == 2:
        return d - 2 - sing.degree_sum
    return d ** (n - 1) - 1 - sing.degree_sum


def bound_kinf(d: int, n: int, sing: SingularComponentData = None) -> int:
    """Bound on all asymptotic non-regular values, trivial ones included.

    Valid under the hypothesis that the non-trivial part is non-empty;
    callers should surface that hypothesis when displaying the number.
    """
    sing = sing if sing is not None else SingularComponentData.empty()
    _validate(d, n, 3)
    return ((d - 1) ** n - 1) // (d - 2) - sing.weighted_degree_sum + sing.count
