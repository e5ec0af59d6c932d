"""A seeded corpus of random two-variable maps, end to end through the CLI.

The corpus is drawn from `random.Random(CORPUS_SEED)`: each map takes 2 to
6 distinct monomials of total degree at most 5 in (x, y), the constant
among them, each with a nonzero integer coefficient in [-5, 5], and a shift
c = ±n/d with n in [10^11, 10^12) and d in [2, 1000), as the benchmark's
shifted maps take theirs.  Every map runs with `--method both`, one run
and the default seed.

Each report must exit 0, or 2 with a documented input error, and print
JSON.  The curves of a report depend on grad f alone, so the reports of f
and of f + c sample the same curves, and every value set of f + c must be
that of f moved by c: its defining polynomial rho(z - c), its rational
roots each plus c, the same flags and as many approximate roots.

At the default three runs, the two methods must also agree on each
unshifted map: both final value sets are supersets of the same true
values, and three runs leave neither a spurious value on these maps.  That
is an observation on this corpus, not a theorem.

The shift property is exact, so it also runs under hypothesis, on maps
drawn the same way with any rational c.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polarvalues.cli import main
from polarvalues.univar import UnivariatePolynomial

import oracles

CORPUS_SEED = "random maps end to end"
CORPUS_SIZE = 30
MONOMIALS = [(i, j) for i in range(6) for j in range(6 - i)]
COEFFICIENTS = [c for c in range(-5, 6) if c]
# input errors the CLI documents with exit code 2
DOCUMENTED = ("must be non-constant", "exceeds the engine limit")


def _text(terms) -> str:
    """Signed terms in the CLI grammar, highest degree first; a leading
    minus is passed as is."""
    parts = []
    for (i, j), c in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        factors = [str(abs(c))] if abs(c) != 1 or i == j == 0 else []
        factors += [v if e == 1 else "%s^%d" % (v, e)
                    for v, e in (("x", i), ("y", j)) if e]
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(" %s %s" % part for part in parts[1:])


def _corpus():
    rng = random.Random(CORPUS_SEED)
    cases = []
    for _ in range(CORPUS_SIZE):
        monomials = rng.sample(MONOMIALS, rng.randint(2, 6))
        terms = {m: rng.choice(COEFFICIENTS) for m in monomials}
        numerator = rng.randrange(10**11, 10**12)
        c = Fraction(rng.choice((-1, 1)) * numerator, rng.randrange(2, 1000))
        cases.append((_text(terms), c))
    return cases


CORPUS = _corpus()


def _report(capsys, text, runs=("--runs", "1")):
    argv = [text, "--vars", "x,y", "--method", "both", *runs]
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    if code == 2:
        assert any(reason in captured.err for reason in DOCUMENTED), (
            captured.err
        )
        return code, None
    assert code == 0, captured.err
    return code, json.loads(captured.out)


def _value_sets(report):
    """Every value set of a report, in report order."""
    for run in report["runs"]:
        yield run
        yield from run.get("steps", ())
    yield report["s_final"]
    yield report["critical_values"]


def _moved(value_set, c):
    rho = UnivariatePolynomial([Fraction(int(v)) for v in value_set["rho"]])
    return {
        "rho": [str(v) for v in oracles.shift(rho, c).integer_coefficients()],
        "rational": [str(Fraction(r) + c)
                     for r in value_set["roots"]["rational"]],
        "approx": len(value_set["roots"]["approx"]),
        "flags": value_set["flags"],
    }


def _as_is(value_set):
    return {
        "rho": value_set["rho"],
        "rational": value_set["roots"]["rational"],
        "approx": len(value_set["roots"]["approx"]),
        "flags": value_set["flags"],
    }


def test_corpus_is_drawn_as_documented():
    assert len(set(CORPUS)) == CORPUS_SIZE
    assert any(text.startswith("-") for text, _ in CORPUS)


def _check_shift(capsys, text, c):
    """The reports of f + c are those of f moved by c."""
    code, report = _report(capsys, text)
    shifted_text = "%s %s %s" % (text, "-" if c < 0 else "+", abs(c))
    shifted_code, shifted = _report(capsys, shifted_text)
    assert shifted_code == code
    if report is None:
        return
    assert [r["method"] for r in report["reports"]] == [
        "super_polar", "iterated_polar"
    ]
    for plain, moved in zip(report["reports"], shifted["reports"]):
        plain_sets = list(_value_sets(plain))
        moved_sets = list(_value_sets(moved))
        assert len(plain_sets) == len(moved_sets)
        for a, b in zip(plain_sets, moved_sets):
            assert _moved(a, c) == _as_is(b)


@pytest.mark.parametrize(
    "text, c", CORPUS, ids=["map%02d" % k for k in range(CORPUS_SIZE)]
)
def test_random_map_reports_move_with_the_shift(capsys, text, c):
    _check_shift(capsys, text, c)


@st.composite
def _drawn_maps(draw):
    """A map drawn as the corpus draws one, and a rational shift."""
    monomials = draw(st.lists(
        st.sampled_from(MONOMIALS), min_size=2, max_size=6, unique=True
    ))
    terms = {m: draw(st.sampled_from(COEFFICIENTS)) for m in monomials}
    c = Fraction(
        draw(st.integers(min_value=-10**12, max_value=10**12)),
        draw(st.integers(min_value=1, max_value=1000)),
    )
    return _text(terms), c


# capsys is drained by every report, so one fixture serves every example
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_drawn_maps())
def test_drawn_map_reports_move_with_the_shift(capsys, case):
    _check_shift(capsys, *case)


@pytest.mark.parametrize(
    "text", [text for text, _ in CORPUS],
    ids=["map%02d" % k for k in range(CORPUS_SIZE)],
)
def test_random_map_methods_agree_at_the_default_runs(capsys, text):
    code, report = _report(capsys, text, runs=())
    if report is None:
        return
    finals = [
        {key: _as_is(r["s_final"])[key] for key in ("rho", "rational", "flags")}
        for r in report["reports"]
    ]
    assert finals[0] == finals[1]
