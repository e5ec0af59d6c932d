"""Non-properness values of a polynomial map restricted to an affine curve.

Given a curve ideal I and a polynomial f on the same ring, the finite set
of values at which f restricted to V(I) fails to be proper is read off
from leading coefficients of fiber relations: for each coordinate x_i, the
intersection of the graph ideal (I, f - z) with the (x_i, z)-subring
contains a nonzero relation r(x_i, z) of minimal x_i-degree; every branch
of the curve along which x_i escapes to infinity forces the x_i-leading
coefficient of r to vanish at the limit value of f.  Components on which f
is constant project onto single values of z and are reported with a flag
rather than excised.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    Ideal,
    UncertifiedResult,
    _eliminations,
    affine_dimension,
    buchberger,
    eliminate,
)
from .polynomials import (
    Polynomial,
    PolynomialRing,
    extend_ring,
    fresh_variable_name,
    lift_polynomial,
)
from .univar import (
    UnivariatePolynomial,
    approx_roots_with_status,
    gcd_univar,
    rational_roots,
    squarefree_part,
)

VERTICAL_COMPONENT = "vertical_component"
EMPTY_CURVE = "empty_curve"


class NotACurveError(ValueError):
    """The input ideal does not cut out a curve (or point set)."""


@dataclass(frozen=True)
class ValueSet:
    """A finite set of complex values encoded by a squarefree polynomial.

    rho is in canonical primitive integer form; rho == 1 encodes the empty
    set.  Rational roots are exact; the approximate roots enumerate all
    deg(rho) complex roots.
    """

    rho: UnivariatePolynomial
    exact_rational_roots: tuple
    approx_roots: tuple
    flags: frozenset
    approx_converged: bool = True

    @classmethod
    def from_rho(
        cls,
        rho: UnivariatePolynomial,
        flags=(),
        tolerance: float = 1e-10,
    ) -> "ValueSet":
        if rho.is_zero():
            raise ValueError("a value set needs a nonzero defining polynomial")
        canonical = squarefree_part(rho)
        if canonical.degree() < 1:
            return cls(
                rho=UnivariatePolynomial.one(),
                exact_rational_roots=(),
                approx_roots=(),
                flags=frozenset(flags),
                approx_converged=True,
            )
        rational = tuple(rational_roots(canonical))
        approx, converged = approx_roots_with_status(canonical, tolerance)
        return cls(
            rho=canonical,
            exact_rational_roots=rational,
            approx_roots=tuple(approx),
            flags=frozenset(flags),
            approx_converged=converged,
        )

    @classmethod
    def empty(cls, flags=()) -> "ValueSet":
        return cls.from_rho(UnivariatePolynomial.one(), flags)

    def is_empty(self) -> bool:
        return self.rho.is_one()

    def root_count(self) -> int:
        return 0 if self.is_empty() else self.rho.degree()


@dataclass(frozen=True)
class GraphIdeal:
    """The ideal of the graph of f over V(base): (base, f - z)."""

    base: Ideal
    map_poly: Polynomial
    ring: PolynomialRing
    z_index: int
    ideal: Ideal


def graph_ideal(base: Ideal, f: Polynomial) -> GraphIdeal:
    """Adjoin a fresh value variable z (last in the order) and f - z."""
    if f.ring != base.ring:
        raise ValueError("f must live in the curve ideal's ring")
    z_name = fresh_variable_name(base.ring.variables, "z")
    ring_z = extend_ring(base.ring, z_name, front=False)
    z = ring_z.variable(z_name)
    gens = [lift_polynomial(g, ring_z) for g in base.generators]
    gens.append(lift_polynomial(f, ring_z) - z)
    return GraphIdeal(
        base=base,
        map_poly=f,
        ring=ring_z,
        z_index=ring_z.nvars - 1,
        ideal=Ideal(ring_z, gens),
    )


def fiber_relation(
    graph: GraphIdeal, var_index: int, seed_elements=None
) -> Polynomial:
    """A nonzero relation r(x_i, z) of minimal x_i-degree in the graph ideal.

    The graph ideal is intersected with the (x_i, z)-subring by
    `eliminate`, whose result is certified to lie in the graph ideal; the
    reduced lex basis (x_i > z) of that intersection is computed in two
    variables and its element of minimal x_i-degree is returned, living in
    a fresh two-variable ring (x_i, z).  `seed_elements` may supply a
    precomputed reduced graded basis of the graph ideal's intersection with
    any subring containing x_i and z (as `graded_basis` and `eliminate`
    return).  `nonproperness_values` hands it the (x_i, z) intersection
    itself, so `eliminate` only filters it.  Raises NotACurveError when
    the intersection is zero, which cannot happen for the graph of a map
    on a curve.
    """
    ring = graph.ring
    if not 0 <= var_index < ring.nvars or var_index == graph.z_index:
        raise ValueError("var_index must name a non-value variable")
    keep = {var_index, graph.z_index}
    candidates = eliminate(graph.ideal, keep, seed_basis=seed_elements)
    if not candidates:
        raise NotACurveError(
            "graph projects dominantly to a coordinate plane; not a curve"
        )
    pair_ring = PolynomialRing(
        (ring.variables[var_index], ring.variables[graph.z_index]),
        ring.field,
    )

    def to_pair(p):
        terms = {}
        for m, c in p.terms.items():
            terms[(m[var_index], m[graph.z_index])] = c
        return Polynomial(pair_ring, terms)

    pair_gb = buchberger(Ideal(pair_ring, [to_pair(p) for p in candidates]))
    elements = pair_gb.elements
    if not elements:
        raise NotACurveError(
            "graph projects dominantly to a coordinate plane; not a curve"
        )
    best = min(
        range(len(elements)), key=lambda k: (elements[k].degree_in(0), k)
    )
    return elements[best]


def leading_coeff_in(p: Polynomial, var_index: int) -> Polynomial:
    """Coefficient polynomial of the highest power of one variable.

    When p does not involve that variable at all, p itself is returned and
    the caller is expected to flag the vertical-component situation.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    top = p.degree_in(var_index)
    if top == 0:
        return p
    terms = {}
    for m, c in p.terms.items():
        if m[var_index] == top:
            stripped = list(m)
            stripped[var_index] = 0
            terms[tuple(stripped)] = c
    return Polynomial(p.ring, terms)


def _univariate_in(p: Polynomial, var_index: int) -> UnivariatePolynomial:
    support = p.support_variables()
    if not support <= {var_index}:
        raise ValueError("polynomial involves more than the chosen variable")
    coeffs = {}
    for m, c in p.terms.items():
        coeffs[m[var_index]] = c
    top = max(coeffs) if coeffs else -1
    return UnivariatePolynomial(
        [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    )


def value_line(graph: GraphIdeal, seed_basis=None):
    """The defining polynomial of the graph ideal's intersection with the
    value line, or None when that intersection is zero."""
    line = eliminate(graph.ideal, {graph.z_index}, seed_basis=seed_basis)
    if not line:
        return None
    # the intersection with the z-line is principal: fold the generators
    # down to the single defining polynomial
    rho = _univariate_in(line[0], graph.z_index)
    for e in line[1:]:
        rho = gcd_univar(rho, _univariate_in(e, graph.z_index))
    return rho


def nonproperness_values(
    curve: Ideal,
    f: Polynomial,
    escape_vars=None,
    dim: int = None,
    tolerance: float = 1e-10,
) -> ValueSet:
    """Values over which f restricted to the curve V(curve) is not proper.

    escape_vars selects which coordinates count as escape directions
    (default: all of them); auxiliary localization variables should be
    excluded by the caller.  dim is the curve's affine dimension when the
    caller already has it; it is computed otherwise.  Components where f is
    constant contribute their value and raise the vertical_component flag;
    the result is a superset of the exact non-properness set whenever such
    components are present.

    One modular elimination chain (`groebner._eliminations`) lifts, for
    each escape variable x_i, the graph ideal's intersection with the
    (x_i, z)-plane; its stages start at one graded basis per prime and are
    shared between the variables.  `fiber_relation` reads the relation off
    that intersection, and the chain's exact membership certificate checks
    that the relation lies in the graph ideal.  A relation outside it
    raises an UncertifiedResult warning; when the certificate is too large
    to run, the chain has already warned about the intersection.  The
    value line (the graph ideal's intersection with the z-line) needs no
    chain of its own: it is nonzero exactly when a fiber relation is free
    of its x_i, and that relation is its generator.  Only with no escape
    variables is the value line lifted directly.
    """
    if f.ring != curve.ring:
        raise ValueError("f must live in the curve ideal's ring")
    if dim is None:
        dim = affine_dimension(curve)
    if dim < 0:
        return ValueSet.empty(flags={EMPTY_CURVE})
    if dim > 1:
        raise NotACurveError("ideal has dimension %d, expected at most 1" % dim)

    graph = graph_ideal(curve, f)
    n = curve.ring.nvars
    if escape_vars is None:
        escape_vars = range(n)
    escape_vars = list(escape_vars)
    drops = {
        i: frozenset(j for j in range(n) if j != i) for i in escape_vars
    }
    line_drop = frozenset(range(n))
    eliminated, certificate = _eliminations(
        graph.ideal, list(drops.values()) or [line_drop]
    )

    flags = set()
    rho = UnivariatePolynomial.one()
    line = None
    for i in escape_vars:
        rel = fiber_relation(graph, i, seed_elements=eliminated[drops[i]])
        if certificate.contains(lift_polynomial(rel, graph.ring)) is False:
            warnings.warn(
                UncertifiedResult(
                    "the fiber relation in (%s) is not in the graph ideal; "
                    "values read off it may be incomplete"
                    % ", ".join(rel.ring.variables)
                )
            )
        if rel.degree_in(0):
            piece = _univariate_in(leading_coeff_in(rel, 0), 1)
            if piece.degree() >= 1:
                rho = rho * piece
        else:
            line = _univariate_in(rel, 1)
            flags.add(VERTICAL_COMPONENT)
            rho = rho * line

    if not escape_vars:
        line = value_line(graph, seed_basis=eliminated[line_drop])
    if line is not None and line.degree() >= 1:
        flags.add(VERTICAL_COMPONENT)
        rho = rho * line

    return ValueSet.from_rho(rho, flags, tolerance)
