"""The immutable value records (`polarvalues.record.Record`) and the cold
start that they keep light.

Every public report and data type is a record: built positionally or by
keyword, frozen, equal by its compared fields within its own class only,
and shown as `Name(field=value, ...)`.  The timing fields
`RunRecord.millis` and `DetectionReport.total_millis` take no part in
equality or hashing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from polarvalues import (
    GraphIdeal,
    GroebnerBasis,
    Ideal,
    IteratedPolarCoefficients,
    PolynomialRing,
    RunConfig,
    RunRecord,
    SingularComponentData,
    StepRecord,
    SuperPolarCoefficients,
    ValueSet,
    buchberger,
    graph_ideal,
    run_iterated_polar,
    run_super_polar,
)
from polarvalues.detector import BoundsSummary, DetectionReport

SRC = Path(__file__).resolve().parent.parent / "src"

# each record type with its fields in declaration order
FIELDS = {
    PolynomialRing: ("variables",),
    SingularComponentData: ("components",),
    Ideal: ("ring", "generators"),
    GroebnerBasis: ("ring", "elements"),
    ValueSet: (
        "rho", "exact_rational_roots", "approx_roots", "flags",
        "approx_converged",
    ),
    GraphIdeal: ("ring", "z_index", "ideal", "shift", "scale"),
    SuperPolarCoefficients: ("seed", "a", "b", "beta"),
    IteratedPolarCoefficients: ("seed", "matrix", "betas"),
    StepRecord: ("index", "values"),
    RunRecord: (
        "seed", "coefficients", "values", "dim_w", "attempts", "steps",
        "millis",
    ),
    BoundsSummary: ("nk", "superpolar", "kinf"),
    DetectionReport: (
        "input_text", "variables", "degree", "method", "case", "seed",
        "runs_requested", "coeff_bound", "tolerance", "runs", "s_final",
        "critical", "bounds", "warnings", "total_millis",
    ),
    RunConfig: (
        "method", "seed", "runs", "coeff_bound", "force_general_case",
        "output", "tolerance",
    ),
}
UNCOMPARED = {RunRecord: "millis", DetectionReport: "total_millis"}


def _samples():
    """One small real instance of each record type, keyed by its type."""
    ring = PolynomialRing(("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    f = x + x**2 * y
    ideal = Ideal(ring, [x**2 - y, x * y - 1])
    basis = buchberger(ideal)  # leaves the ideal its certificate
    sliced = run_iterated_polar(f, seed=0, runs=1, coeff_bound=5)
    report = run_super_polar(f, seed=0, runs=1, coeff_bound=5)
    run = report.runs[0]
    instances = [
        ring,
        SingularComponentData(((2, 1),)),
        ideal,
        basis,
        report.s_final,
        graph_ideal(Ideal(ring, [y]), f),
        run.coefficients,
        sliced.runs[0].coefficients,
        sliced.runs[0].steps[0],
        run,
        report.bounds,
        report,
        RunConfig(method="both", seed=7),
    ]
    return {type(r): r for r in instances}


SAMPLES = _samples()


def test_samples_cover_every_record_type():
    assert set(SAMPLES) == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_behaviour(cls):
    record = SAMPLES[cls]
    fields = FIELDS[cls]
    assert cls._fields == fields

    # frozen: no field, and no new attribute, can be set or deleted
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)

    # equal fields give an equal object with an equal hash
    same = cls(**{name: getattr(record, name) for name in fields})
    assert same is not record
    assert same == record and not same != record
    assert hash(same) == hash(record)
    assert record.replace() == record

    # the timing fields take no part in equality or hashing
    if cls in UNCOMPARED:
        name = UNCOMPARED[cls]
        retimed = record.replace(**{name: getattr(record, name) + 12.5})
        assert getattr(retimed, name) != getattr(record, name)
        assert retimed == record and hash(retimed) == hash(record)

    # a record never equals a record of another class
    for other in SAMPLES.values():
        if type(other) is not cls:
            assert record.__eq__(other) is NotImplemented
            assert record != other

    assert repr(record) == "%s(%s)" % (
        cls.__name__,
        ", ".join("%s=%r" % (name, getattr(record, name)) for name in fields),
    )


def test_compared_fields_decide_equality():
    config = RunConfig()
    assert config.replace(seed=1) != config
    assert config.replace(seed=1).replace(seed=0) == config
    report = SAMPLES[DetectionReport]
    assert report.replace(warnings=("w",)) != report


def test_init_takes_positions_keywords_and_defaults():
    assert RunConfig("both", 1) == RunConfig(seed=1, method="both")
    assert RunConfig("both").runs == 3
    assert StepRecord(1, SAMPLES[ValueSet]).values is SAMPLES[ValueSet]
    with pytest.raises(TypeError):
        StepRecord(1)
    with pytest.raises(TypeError):
        StepRecord(1, None, None)
    with pytest.raises(TypeError):
        StepRecord(1, index=1, values=None)
    with pytest.raises(TypeError):
        StepRecord(1, None, bogus=2)


def test_ring_post_init_checks_names():
    assert PolynomialRing(["x", "y"]).variables == ("x", "y")
    with pytest.raises(ValueError):
        PolynomialRing(("x", "x"))
    with pytest.raises(ValueError):
        PolynomialRing(("x", ""))


def test_ideal_keeps_its_own_init_and_certificate():
    ideal = SAMPLES[Ideal]
    assert "_certificate" in ideal.__dict__
    fresh = Ideal(ideal.ring, list(ideal.generators) + [ideal.ring.zero()])
    assert "_certificate" not in fresh.__dict__
    assert fresh == ideal and hash(fresh) == hash(ideal)
    with pytest.raises(TypeError):
        Ideal(ideal.ring, [1])


def test_cold_start_imports_no_dataclass_machinery():
    # import the package and run the benchmark's set-up report in a fresh
    # interpreter; -S keeps site-packages hooks from importing anything
    code = (
        "import sys, contextlib, io\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import polarvalues.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = polarvalues.cli.main(sys.argv[2:])\n"
        "print(code, out.getvalue().startswith('{'),\n"
        "      sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    argv = ["x^2 + y^2", "--vars", "x,y", "--runs", "1", "--json"]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)] + argv,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["0", "True", "[]"]
