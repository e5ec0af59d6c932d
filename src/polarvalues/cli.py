"""Command-line front end: parse a polynomial, run detection, emit reports.

Input grammar (no parentheses): a polynomial is a signed sum of terms; a
term multiplies an optional rational coefficient (`3`, `-1/2`) with
variable powers (`x`, `y^3`) using `*`.  Whitespace is insignificant.
Variables must be declared with --vars so dummy variables are expressible.

Exit codes: 0 success, 2 invalid input, 3 dimension-guard exhaustion,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .detector import (
    DEFAULT_COEFF_BOUND,
    DEFAULT_RUNS,
    DetectionReport,
    DimensionGuardError,
    _CriticalSet,
    run_iterated_polar,
    run_super_polar,
)
from .polynomials import Polynomial, PolynomialRing
from .record import Record


class ParseError(ValueError):
    """Input rejection with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


class CLIError(ValueError):
    """Configuration-level rejection (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# polynomial text parsing


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse the sum-of-terms grammar over the declared variables."""
    ring = PolynomialRing(tuple(variables))
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_integer() -> int:
        kind, value, at = peek()
        if kind != "int":
            raise ParseError("expected an integer", at)
        advance()
        return int(value)

    def parse_factor():
        """Returns (coefficient: Fraction, exponents: list)."""
        kind, value, at = peek()
        if kind == "int":
            advance()
            numerator = int(value)
            if peek()[0] == "/":
                advance()
                kind2, value2, at2 = peek()
                if kind2 != "int":
                    raise ParseError("expected a denominator", at2)
                advance()
                denominator = int(value2)
                if denominator == 0:
                    raise ParseError("zero denominator", at2)
                return Fraction(numerator, denominator), None
            return Fraction(numerator), None
        if kind == "name":
            advance()
            if value not in ring.variables:
                raise ParseError("undeclared variable %r" % value, at)
            exponent = 1
            if peek()[0] == "^":
                advance()
                exponent = parse_integer()
                if exponent < 0:
                    raise ParseError("negative exponent", at)
            exps = [0] * ring.nvars
            exps[ring.index(value)] = exponent
            return None, exps
        raise ParseError("expected a coefficient or variable", at)

    def parse_term():
        coeff = Fraction(1)
        exps = [0] * ring.nvars
        while True:
            c, e = parse_factor()
            if c is not None:
                coeff *= c
            else:
                exps = [a + b for a, b in zip(exps, e)]
            if peek()[0] == "*":
                advance()
                continue
            return coeff, tuple(exps)

    terms = {}

    def accumulate(sign: int):
        coeff, exps = parse_term()
        value = terms.get(exps, Fraction(0)) + sign * coeff
        if value:
            terms[exps] = value
        elif exps in terms:
            del terms[exps]

    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if advance()[0] == "-" else 1
    accumulate(sign)
    while peek()[0] != "end":
        kind, _, at = peek()
        if kind not in ("+", "-"):
            raise ParseError("expected '+' or '-'", at)
        advance()
        accumulate(-1 if kind == "-" else 1)

    return ring.polynomial(terms)


# ---------------------------------------------------------------------------
# configuration and dispatch


class RunConfig(Record):
    method: str = "super_polar"
    seed: int = 0
    runs: int = DEFAULT_RUNS
    coeff_bound: int = DEFAULT_COEFF_BOUND
    force_general_case: bool = False
    output: str = "text"
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.method not in ("super_polar", "iterated_polar", "both"):
            raise CLIError("unknown method %r" % self.method)
        if self.runs < 1:
            raise CLIError("runs must be at least 1")
        if self.coeff_bound < 2:
            raise CLIError("coeff_bound must be at least 2")
        if self.output not in ("text", "json"):
            raise CLIError("unknown output mode %r" % self.output)


def run(config: RunConfig, f: Polynomial):
    """Execute the configured method(s); returns the list of reports.

    Both methods share one `_CriticalSet` of f, so `--method both`
    computes the critical values once."""
    critical = _CriticalSet(f)
    reports = []
    if config.method in ("super_polar", "both"):
        reports.append(
            run_super_polar(
                f,
                seed=config.seed,
                runs=config.runs,
                coeff_bound=config.coeff_bound,
                force_general=config.force_general_case,
                tolerance=config.tolerance,
                critical=critical,
            )
        )
    if config.method in ("iterated_polar", "both"):
        reports.append(
            run_iterated_polar(
                f,
                seed=config.seed,
                runs=config.runs,
                coeff_bound=config.coeff_bound,
                tolerance=config.tolerance,
                critical=critical,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# serialization


def _value_set_dict(vs) -> dict:
    return {
        "rho": [str(c) for c in vs.rho.integer_coefficients()],
        "roots": {
            "rational": [str(r) for r in vs.exact_rational_roots],
            "approx": [[z.real, z.imag] for z in vs.approx_roots],
        },
        "flags": sorted(vs.flags),
    }


def report_to_dict(report: DetectionReport) -> dict:
    runs = []
    for rec in report.runs:
        entry = {
            "seed": str(rec.seed),
        }
        entry.update(_value_set_dict(rec.values))
        if rec.steps:
            entry["steps"] = [
                dict(index=step.index, **_value_set_dict(step.values))
                for step in rec.steps
            ]
        runs.append(entry)
    return {
        "schema": 1,
        "input": report.input_text,
        "variables": list(report.variables),
        "degree": report.degree,
        "method": report.method,
        "config": {
            "seed": str(report.seed),
            "runs": report.runs_requested,
            "coeff_bound": report.coeff_bound,
        },
        "runs": runs,
        "s_final": _value_set_dict(report.s_final),
        "critical_values": _value_set_dict(report.critical),
        "bounds": {
            "nk": report.bounds.nk,
            "superpolar": report.bounds.superpolar,
            "kinf": report.bounds.kinf,
        },
        "warnings": list(report.warnings),
    }


def reports_to_json(reports) -> str:
    if len(reports) == 1:
        payload = report_to_dict(reports[0])
    else:
        payload = {
            "schema": 1,
            "method": "both",
            "reports": [report_to_dict(r) for r in reports],
        }
    return json.dumps(payload, indent=2)


def _format_value_set(vs, indent: str = "    ") -> str:
    lines = []
    if vs.is_empty():
        lines.append(indent + "rho: 1 (empty set)")
    else:
        lines.append(indent + "rho: %s" % vs.rho)
        if vs.exact_rational_roots:
            lines.append(
                indent
                + "rational roots: "
                + ", ".join(str(r) for r in vs.exact_rational_roots)
            )
        approx = ", ".join(_format_complex(z) for z in vs.approx_roots)
        lines.append(indent + "approx roots: " + approx)
    if vs.flags:
        lines.append(indent + "flags: " + ", ".join(sorted(vs.flags)))
    return "\n".join(lines)


def _format_complex(z: complex) -> str:
    return "%.10g%+.10gi" % (z.real, z.imag)


def render_text(report: DetectionReport) -> str:
    lines = []
    lines.append("input:      %s" % report.input_text)
    lines.append("variables:  %s" % ", ".join(report.variables))
    lines.append("degree:     %d" % report.degree)
    lines.append("method:     %s (%s case)" % (report.method, report.case))
    lines.append(
        "config:     seed=%d runs=%d coeff_bound=%d tolerance=%g"
        % (report.seed, report.runs_requested, report.coeff_bound, report.tolerance)
    )
    for k, rec in enumerate(report.runs):
        lines.append(
            "run %d: seed=%d dim=%d attempts=%d (%.1f ms)"
            % (k, rec.seed, rec.dim_w, rec.attempts, rec.millis)
        )
        lines.append(_format_value_set(rec.values))
        for step in rec.steps:
            lines.append("    step %d:" % step.index)
            lines.append(_format_value_set(step.values, indent="        "))
    lines.append("s_final (intersection of %d run(s)):" % len(report.runs))
    lines.append(_format_value_set(report.s_final))
    lines.append("critical values (image of the singular locus):")
    lines.append(_format_value_set(report.critical))
    bounds = report.bounds
    lines.append(
        "bounds: nk=%s superpolar=%s (valid when the detected set is "
        "nonempty) kinf=%s"
        % (
            _format_bound(bounds.nk),
            _format_bound(bounds.superpolar),
            _format_bound(bounds.kinf),
        )
    )
    if report.warnings:
        for w in report.warnings:
            lines.append("warning: %s" % w)
    lines.append("total time: %.1f ms" % report.total_millis)
    return "\n".join(lines)


def _format_bound(v) -> str:
    return "n/a" if v is None else str(v)


# ---------------------------------------------------------------------------
# entry point


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarvalues",
        description=(
            "Compute a finite superset of the non-trivial asymptotic "
            "non-regular values of a polynomial map C^n -> C."
        ),
    )
    parser.add_argument("polynomial", nargs="?", help="polynomial text")
    parser.add_argument("--file", help="read the polynomial text from a file")
    parser.add_argument(
        "--vars",
        required=True,
        help="comma-separated variable names, e.g. x,y,z",
    )
    parser.add_argument(
        "--method",
        choices=("super_polar", "iterated_polar", "both"),
        default="super_polar",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--coeff-bound", type=int, default=DEFAULT_COEFF_BOUND)
    parser.add_argument("--force-general", action="store_true")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--tolerance", type=float, default=1e-10)
    return parser


_PARSER = None


def main(argv=None) -> int:
    # parsing leaves the parser as it was, so one serves every call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_arg_parser()
    parser = _PARSER
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse takes a text that starts with a minus and holds no
        # space, such as -x^2*y, for an unknown option
        if args.polynomial is None and len(extra) == 1 and extra[0][:2] != "--":
            args.polynomial = extra.pop()
        if extra:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.polynomial is None and args.file is None:
            raise CLIError("provide a polynomial (positional or --file)")
        if args.polynomial is not None and args.file is not None:
            raise CLIError("give either a positional polynomial or --file")
        if args.file is not None:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    text = handle.read().strip()
            except OSError as exc:
                raise CLIError("cannot read %s: %s" % (args.file, exc))
        else:
            text = args.polynomial
        names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        if len(names) < 2:
            raise CLIError("declare at least two variables")
        config = RunConfig(
            method=args.method,
            seed=args.seed,
            runs=args.runs,
            coeff_bound=args.coeff_bound,
            force_general_case=args.force_general,
            output="json" if args.json else "text",
            tolerance=args.tolerance,
        )
        f = parse_polynomial(text, names)
        if f.is_constant():
            raise CLIError("the polynomial must be non-constant")
        reports = run(config, f)
    except (ParseError, CLIError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DimensionGuardError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return 4

    if config.output == "json":
        print(reports_to_json(reports))
    else:
        blocks = [render_text(r) for r in reports]
        print("\n\n".join(blocks))
    return 0


def console_entry():
    sys.exit(main(sys.argv[1:]))
