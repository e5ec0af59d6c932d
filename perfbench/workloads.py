"""Workload input panels and their expected answers.

Every input is one argument vector for ``polarvalues.cli.main`` plus the
value sets the report must contain.  The expectations come from hand-known
facts about the base maps, never from the engine: a linear coordinate
change leaves the detected sets and the critical values of a map unchanged,
and adding a constant c moves every value by c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# base map -> (coefficients {(i, j): c} of c*x^i*y^j,
#              detected asymptotic values, critical values)
BASE_MAPS = {
    "x + x^2*y": ({(1, 0): 1, (2, 1): 1}, (0,), ()),
    "x^2 + y^2": ({(2, 0): 1, (0, 2): 1}, (), (0,)),
    "x^3 - 3*x + y^2": ({(3, 0): 1, (1, 0): -3, (0, 2): 1}, (), (-2, 2)),
    # singular locus is the y-axis: the general (localized) case
    "x^2*y": ({(2, 1): 1}, (), (0,)),
}

N3_MAP = "x + x^2*y"
SHIFT_HEIGHT = 10**12
MATRIX_BOUND = 3


@dataclass(frozen=True)
class Case:
    """One detection report to request and the answer it must give.

    ``s_final`` and ``critical`` are exact value sets, or None where only
    ``s_final_contains`` is checked (the three-variable workloads).
    """

    label: str
    argv: tuple
    s_final: tuple = None
    critical: tuple = None
    s_final_contains: tuple = ()


def _poly_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (d, e), k in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * k
    return {m: c for m, c in out.items() if c}


def _poly_pow(p, e):
    out = {(0, 0): 1}
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def compose_linear(base, matrix):
    """base(a*x + b*y, c*x + d*y) as a coefficient dict."""
    (a, b), (c, d) = matrix
    x_img = {m: v for m, v in {(1, 0): a, (0, 1): b}.items() if v}
    y_img = {m: v for m, v in {(1, 0): c, (0, 1): d}.items() if v}
    out = {}
    for (i, j), coeff in base.items():
        term = _poly_mul(_poly_pow(x_img, i), _poly_pow(y_img, j))
        for m, v in term.items():
            out[m] = out.get(m, 0) + coeff * v
    return {m: Fraction(c) for m, c in out.items() if c}


def format_poly(terms, names=("x", "y")):
    """Text in the CLI grammar: signed terms, `p/q` coefficients, no parens."""
    parts = []
    for exps in sorted(terms, key=lambda m: (-sum(m), [-e for e in m])):
        coeff = terms[exps]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        factors = [] if mag == 1 and any(exps) else [str(mag)]
        for name, e in zip(names, exps):
            if e:
                factors.append(name if e == 1 else "%s^%d" % (name, e))
        parts.append((sign, "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _invertible_matrix(rng):
    while True:
        m = [[rng.randint(-MATRIX_BOUND, MATRIX_BOUND) for _ in range(2)]
             for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            return m


def _shift(rng):
    numerator = rng.randrange(SHIFT_HEIGHT // 10, SHIFT_HEIGHT)
    return Fraction(rng.choice((-1, 1)) * numerator, rng.randrange(2, 1000))


def maps2_shifted(rounds=4):
    """Rounds of every base map once, each as base(A(x, y)) + c."""
    rng = random.Random("maps2_shifted")
    cases = []
    for _ in range(rounds):
        for name, (base, values, critical) in BASE_MAPS.items():
            matrix = _invertible_matrix(rng)
            c = _shift(rng)
            terms = compose_linear(base, matrix)
            terms[(0, 0)] = terms.get((0, 0), 0) + c
            label = "%s | A=%s | c=%s" % (name, matrix, c)
            argv = (format_poly(terms), "--vars", "x,y", "--method", "both",
                    "--json")
            cases.append(Case(
                label, argv,
                s_final=tuple(Fraction(v) + c for v in values),
                critical=tuple(Fraction(v) + c for v in critical)))
    return cases


def n3(bound, program_seeds):
    """x + x^2*y on (x, y, u), one super-polar run per program seed."""
    return [
        Case("%s | bound=%d | seed=%d" % (N3_MAP, bound, s),
             (N3_MAP, "--vars", "x,y,u", "--runs", "1", "--coeff-bound",
              str(bound), "--seed", str(s), "--json"),
             critical=(), s_final_contains=(Fraction(0),))
        for s in program_seeds
    ]


# name -> (panel of cases, span names the workload never reaches)
WORKLOADS = {
    "maps2_shifted": (maps2_shifted(), ()),
    "n3_bound5": (n3(5, (0, 1, 2)), ("detector.run_iterated_polar",)),
    "n3_bound9999": (n3(9999, (0,)), ("detector.run_iterated_polar",)),
}


def panel(workload, seed):
    """The workload's fixed cases, in an order drawn from ``seed``.

    The inputs themselves do not depend on the seed: report times vary so
    much from input to input (0.2 to 2.6 s on maps2_shifted, 5.2 to 9.2 s
    across program seeds at bound 5) that runs of a few seeded reports
    would differ between seeds by more than any bound allows.
    """
    cases = list(WORKLOADS[workload][0])
    random.Random("%s/%d" % (workload, seed)).shuffle(cases)
    return cases
