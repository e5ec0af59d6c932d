#!/usr/bin/env python3
"""Run both detection methods over the built-in example family.

Prints one row per (polynomial, method): the detected value set, the
separately reported critical values, and wall-clock time.  Use --seed /
--runs / --coeff-bound to reproduce or vary the runs; small bounds keep
the 3-variable examples fast without changing the detected sets.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polarvalues.detector import run_iterated_polar, run_super_polar
from polarvalues.polynomials import PolynomialRing


def examples():
    r2 = PolynomialRing(("x", "y"))
    x, y = r2.variable("x"), r2.variable("y")
    r3 = PolynomialRing(("x", "y", "u"))
    x3, y3 = r3.variable("x"), r3.variable("y")
    return [
        ("x + x^2*y (n=2)", x + x**2 * y),
        ("x + x^2*y (n=3)", x3 + x3**2 * y3),
        ("x (n=2)", x),
        ("x^2 + y^2", x**2 + y**2),
        ("x^3 - 3x + y^2", x**3 - 3 * x + y**2),
        ("x*y", x * y),
    ]


def describe(vs):
    if vs.is_empty():
        return "empty"
    roots = ", ".join(str(r) for r in vs.exact_rational_roots)
    extra = len(vs.approx_roots) - len(vs.exact_rational_roots)
    text = "{%s}" % roots if roots else "no rational roots"
    if extra > 0:
        text += " + %d irrational" % extra
    if vs.flags:
        text += " [%s]" % ",".join(sorted(vs.flags))
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--coeff-bound", type=int, default=5)
    args = parser.parse_args(argv)

    header = "%-18s %-15s %-28s %-16s %8s" % (
        "polynomial", "method", "s_final", "critical", "time",
    )
    print(header)
    print("-" * len(header))
    for label, f in examples():
        for name, runner in (
            ("super_polar", run_super_polar),
            ("iterated_polar", run_iterated_polar),
        ):
            t0 = time.perf_counter()
            rep = runner(
                f,
                seed=args.seed,
                runs=args.runs,
                coeff_bound=args.coeff_bound,
            )
            dt = time.perf_counter() - t0
            print(
                "%-18s %-15s %-28s %-16s %7.2fs"
                % (
                    label,
                    name,
                    describe(rep.s_final),
                    describe(rep.critical),
                    dt,
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
