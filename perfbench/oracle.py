"""Check a ``--json`` detection document against a workload case.

Pure ``fractions`` arithmetic on the printed JSON; nothing here imports the
package under test.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

MISSING_ROOTS = "missing rational roots"


def canonical_rho(values):
    """Ascending primitive integer coefficients of prod(z - v), positive lead.

    The empty set is the constant polynomial 1.
    """
    coeffs = [Fraction(1)]
    for v in values:
        shifted = [Fraction(0)] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= v * c
        coeffs = shifted
    denominators = 1
    for c in coeffs:
        denominators = denominators * c.denominator // math.gcd(
            denominators, c.denominator)
    ints = [int(c * denominators) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [str(v // g) for v in ints]


def _value_set_errors(where, got, expected, exact=True, contains=()):
    errors = []
    roots = [Fraction(r) for r in got["roots"]["rational"]]
    if exact:
        if got["rho"] != canonical_rho(expected):
            errors.append("%s: rho %s, expected %s"
                          % (where, got["rho"], canonical_rho(expected)))
        if roots != sorted(expected):
            missing = sorted(set(expected) - set(roots))
            if set(roots) < set(expected) and roots == sorted(roots):
                errors.append("%s: %s %s" % (where, MISSING_ROOTS,
                                             [str(r) for r in missing]))
            else:
                errors.append("%s: rational roots %s, expected %s"
                              % (where, [str(r) for r in roots],
                                 [str(r) for r in sorted(expected)]))
        if len(got["roots"]["approx"]) != len(expected):
            errors.append("%s: %d approximate roots for %d values"
                          % (where, len(got["roots"]["approx"]),
                             len(expected)))
    for v in contains:
        if v not in roots:
            errors.append("%s: %s not among rational roots %s"
                          % (where, v, got["roots"]["rational"]))
    return errors


def check(case, stdout):
    """List of mismatches between the printed report(s) and ``case``."""
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    reports = payload["reports"] if payload.get("method") == "both" else [
        payload]
    wanted = ["super_polar", "iterated_polar"] if "both" in case.argv else [
        "super_polar"]
    errors = []
    try:
        if [r["method"] for r in reports] != wanted:
            return ["methods %s, expected %s"
                    % ([r["method"] for r in reports], wanted)]
        for report in reports:
            method = report["method"]
            errors += _value_set_errors(
                method + " s_final", report["s_final"],
                case.s_final, exact=case.s_final is not None,
                contains=case.s_final_contains)
            errors += _value_set_errors(
                method + " critical_values", report["critical_values"],
                case.critical)
    except (KeyError, TypeError, ValueError) as exc:
        errors.append("malformed report: %r" % exc)
    return errors


def only_missing_roots(errors):
    """True when every mismatch is a rational root absent from the list.

    That is the known defect of exact root reporting on values of large
    height: rho is right, yet the listed rational roots lack some of its
    roots.
    """
    return bool(errors) and all(MISSING_ROOTS in e for e in errors)
