"""Checks of the input generator and the oracle, without the engine.

Run with ``python3 -m pytest perfbench``.
"""

import json
import random
from fractions import Fraction

import oracle
import workloads


def evaluate(terms, x, y):
    return sum(c * x**i * y**j for (i, j), c in terms.items())


def test_compose_linear_is_substitution():
    rng = random.Random(3)
    for base, _, _ in workloads.BASE_MAPS.values():
        matrix = workloads._invertible_matrix(rng)
        moved = workloads.compose_linear(base, matrix)
        for _ in range(5):
            x, y = Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9))
            (a, b), (c, d) = matrix
            assert evaluate(moved, x, y) == evaluate(
                base, a * x + b * y, c * x + d * y)


def test_format_poly():
    terms = {(2, 1): Fraction(1), (1, 0): Fraction(-3),
             (0, 0): Fraction(-5, 7)}
    assert workloads.format_poly(terms) == "x^2*y - 3*x - 5/7"


def test_canonical_rho():
    assert oracle.canonical_rho(()) == ["1"]
    assert oracle.canonical_rho((Fraction(0),)) == ["0", "1"]
    assert oracle.canonical_rho((Fraction(-2), Fraction(2))) == ["-4", "0", "1"]
    assert oracle.canonical_rho((Fraction(5, 3),)) == ["-5", "3"]


def _document(s_final, critical, rational=None):
    def value_set(values, roots):
        return {"rho": oracle.canonical_rho(values),
                "roots": {"rational": [str(v) for v in roots],
                          "approx": [[float(v), 0.0] for v in values]},
                "flags": []}
    reports = [{"method": m,
                "s_final": value_set(s_final, s_final),
                "critical_values": value_set(
                    critical, critical if rational is None else rational)}
               for m in ("super_polar", "iterated_polar")]
    return json.dumps({"schema": 1, "method": "both", "reports": reports})


def test_check_classifies_failures():
    case = workloads.maps2_shifted(1)[2]  # x^3 - 3*x + y^2, two critical values
    assert case.label.startswith("x^3")
    good = _document(case.s_final, case.critical)
    assert oracle.check(case, good) == []
    missing = oracle.check(case, _document(case.s_final, case.critical, ()))
    assert len(missing) == 2 and oracle.only_missing_roots(missing)
    wrong = oracle.check(case, _document(case.s_final, case.critical[:1]))
    assert wrong and not oracle.only_missing_roots(wrong)
    assert oracle.check(case, "not json")[0].startswith("output is not JSON")
