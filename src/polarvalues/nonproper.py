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

The graph ideal carries f in a normalized value coordinate, z an affine
image of f without its constant term and with primitive integer
coefficients (see `GraphIdeal`); the value sets returned here are mapped
back to the values of f.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .groebner import (
    Ideal,
    _eliminations,
    affine_dimension,
    buchberger,
    eliminate,
)
from .polynomials import (
    Polynomial,
    PolynomialRing,
    _primitive,
    extend_ring,
    fresh_variable_name,
)
from .record import Record
from .univar import (
    UnivariatePolynomial,
    approx_roots_with_status,
    rational_roots,
    squarefree_part,
)

VERTICAL_COMPONENT = "vertical_component"
EMPTY_CURVE = "empty_curve"


class NotACurveError(ValueError):
    """The input ideal does not cut out a curve (or point set)."""


class ValueSet(Record):
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
        # a rational root is its own float, and only the factor left after
        # deflating them, a constant when every root is rational, is
        # approximated; a float beyond the float range is an infinity and
        # unconverged, as in approx_roots_with_status
        rational = tuple(rational_roots(canonical))
        rest = canonical
        for r in rational:
            rest //= UnivariatePolynomial((-r, 1))
        approx, converged = approx_roots_with_status(rest, tolerance)
        for r in rational:
            try:
                approx.append(complex(r))
            except OverflowError:
                approx.append(complex(math.inf if r > 0 else -math.inf))
                converged = False
        approx.sort(key=lambda z: (z.real, z.imag))
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


class GraphIdeal(Record):
    """The ideal of the graph of f over V(base) in a normalized value
    coordinate: (base, scale*(f - shift) - z).

    `shift` is f's constant term and `scale` > 0 makes scale*(f - shift)
    a primitive integer polynomial, so z is an affine image of f's value
    and f's constant term and denominators stay out of every Groebner
    basis of the graph.  Polynomials of the graph ideal speak of z; `to_f`
    maps a polynomial in z back to f's values.
    """

    ring: PolynomialRing
    z_index: int
    ideal: Ideal
    shift: Fraction
    scale: Fraction

    def to_f(self, rho: UnivariatePolynomial) -> UnivariatePolynomial:
        """rho(z) of the graph's value coordinate as the polynomial
        rho(scale*(z - shift)) in f's values: their roots correspond."""
        line = UnivariatePolynomial((-self.scale * self.shift, self.scale))
        out = UnivariatePolynomial.zero()
        for c in reversed(rho.coefficients):
            out = out * line + c
        return out


def graph_ideal(base: Ideal, f: Polynomial) -> GraphIdeal:
    """Adjoin a fresh value variable z (last in the order) and
    scale*(f - shift) - z (see `GraphIdeal`).

    The change z -> scale*(z - shift) of the value coordinate is affine,
    so it maps the graph ideal of f - z onto this one, and their
    eliminations and reduced lex bases onto each other up to scalars: the
    values read off either are the same once mapped back.  scale*(f -
    shift) is f's primitive integer form (`polynomials._primitive`), and
    the base's generators are relabeled, not recomputed.
    """
    if f.ring != base.ring:
        raise ValueError("f must live in the curve ideal's ring")
    z_name = fresh_variable_name(base.ring.variables, "z")
    ring_z = extend_ring(base.ring, z_name, front=False)
    shift, scale, terms = _primitive(f)
    value = {m + (0,): Fraction(v) for m, v in terms.items()}
    value[(0,) * f.ring.nvars + (1,)] = Fraction(-1)
    gens = [Polynomial(ring_z, {m + (0,): c for m, c in g.terms.items()})
            for g in base.generators]
    gens.append(Polynomial(ring_z, value))
    return GraphIdeal(ring_z, ring_z.nvars - 1, Ideal(ring_z, gens), shift, scale)


def fiber_relation(
    graph: GraphIdeal, var_index: int, seed_elements=None
) -> Polynomial:
    """A nonzero relation r(x_i, z) of minimal x_i-degree in the graph ideal.

    z is the graph's value coordinate, scale*(f - shift) (see
    `GraphIdeal`).

    The graph ideal is intersected with the (x_i, z)-subring by
    `eliminate`, whose result is certified to lie in the graph ideal; the
    reduced lex basis (x_i > z) of that intersection is computed in two
    variables and its element of minimal x_i-degree is returned, living in
    a fresh two-variable ring (x_i, z).  An intersection of one polynomial,
    the usual case, is its own lex basis: `buchberger` returns it made
    primitive with a positive leading coefficient, with no modular chain.
    `seed_elements` may supply that intersection instead, as
    `nonproperness_values` does from its chain; it is then taken as it
    is.  Raises NotACurveError when the intersection is zero, which cannot
    happen for the graph of a map on a curve.
    """
    ring = graph.ring
    if not 0 <= var_index < ring.nvars or var_index == graph.z_index:
        raise ValueError("var_index must name a non-value variable")
    keep = {var_index, graph.z_index}
    if seed_elements is None:
        candidates = eliminate(graph.ideal, keep)
    else:
        candidates = list(seed_elements)
    if not candidates:
        raise NotACurveError(
            "graph projects dominantly to a coordinate plane; not a curve"
        )
    pair_ring = PolynomialRing(
        (ring.variables[var_index], ring.variables[graph.z_index])
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


def value_line(graph: GraphIdeal):
    """The defining polynomial of the graph ideal's intersection with the
    value line, or None when that intersection is zero.  It is a
    polynomial in the graph's value coordinate z (see `GraphIdeal`)."""
    # a nonzero ideal of Q[z] is principal: its reduced basis is one element
    line = eliminate(graph.ideal, {graph.z_index})
    return _univariate_in(line[0], graph.z_index) if line else None


def nonproperness_values(
    graph: GraphIdeal,
    escape_vars=None,
    tolerance: float = 1e-10,
) -> ValueSet:
    """Values of f over which f restricted to the curve V(I) is not
    proper, read off its graph ideal built by `graph_ideal`.

    escape_vars selects which coordinates count as escape directions
    (default: all but z); auxiliary localization variables should be
    excluded by the caller.  An index that names no such coordinate raises
    ValueError before any Groebner work, and a repeated one is read once.
    Components where f is constant contribute their value and raise the
    vertical_component flag; the result is a superset of the exact
    non-properness set whenever such components are present.

    The graph is isomorphic to the curve, so its dimension is the curve's.
    One modular elimination chain (`groebner._eliminations`) lifts, for
    each escape variable x_i, the graph ideal's intersection with the
    (x_i, z)-plane; its root stages start from the certificate's basis
    modulo each prime, and its stages are shared between the variables.
    `fiber_relation` reads the relation off that intersection.  The
    dimension and the chain share the ideal's one exact membership
    certificate, and each relation lies in the graph ideal with no check
    of its own: every output of the chain is proved to lie in the ideal
    I (`_Certificate.covers`), and the relation r is an element of the
    reduced lex basis of the ideal those outputs generate, which its own
    chain proves or warns about, so r lies in <outputs>, which lies in I.
    When the certificate is above the exact-check cap, nothing is proved
    and the chain has already warned about each intersection.  The value
    line (the graph ideal's intersection with the z-line) needs no chain
    of its own: it is nonzero exactly when a fiber relation is free of its
    x_i, and that relation is its generator.  Only with no escape
    variables is the value line lifted directly, by `value_line`'s own
    chain.  The product of the pieces and the line, a polynomial in the
    graph's z, is mapped back to f's values once (`GraphIdeal.to_f`)
    before its roots are computed.
    """
    n = graph.z_index
    escape_vars = list(dict.fromkeys(
        range(n) if escape_vars is None else escape_vars
    ))
    if not all(0 <= i < n for i in escape_vars):
        raise ValueError("var_index must name a non-value variable")
    dim = affine_dimension(graph.ideal)
    if dim < 0:
        return ValueSet.empty(flags={EMPTY_CURVE})
    if dim > 1:
        raise NotACurveError("ideal has dimension %d, expected at most 1" % dim)

    drops = {
        i: frozenset(j for j in range(n) if j != i) for i in escape_vars
    }
    flags = set()
    rho = UnivariatePolynomial.one()
    line = None
    if escape_vars:
        eliminated = _eliminations(graph.ideal, list(drops.values()))
    else:
        line = value_line(graph)
    for i in escape_vars:
        rel = fiber_relation(graph, i, seed_elements=eliminated[drops[i]])
        if rel.degree_in(0):
            piece = _univariate_in(leading_coeff_in(rel, 0), 1)
            if piece.degree() >= 1:
                rho = rho * piece
        else:
            line = _univariate_in(rel, 1)

    if line is not None and line.degree() >= 1:
        flags.add(VERTICAL_COMPONENT)
        rho = rho * line

    return ValueSet.from_rho(graph.to_f(rho), flags, tolerance)
