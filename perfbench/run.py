"""polarvalues benchmark: timed detection reports on seeded workloads.

    python3 perfbench/run.py --workload maps2_shifted --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client, one process, no threads: reports run one after another through
``polarvalues.cli.main([..., "--json"])`` and each printed document is
checked by ``oracle.py``.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable summary and the list of failed reports.

``--trace 0`` makes whole passes over the workload's panel until
``--seconds`` have gone by and reports the end-to-end metrics.  Their
times are reference seconds: wall seconds scaled by the host speed that
``speed.py`` samples while each report runs.  ``--trace 1``
makes one pass, running every input untraced and traced by ``tracer.py``,
and reports the per-layer metrics as means per traced report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, panel  # noqa: E402

SETUP_REPEATS = 21
# A tiny report: importing the package and running it once fills the
# lazy module state (prime agenda, guard-mask cache).
WARMUP_ARGV = ["x^2 + y^2", "--vars", "x,y", "--runs", "1", "--json"]
# The host speed is sampled inside the set-up interpreter itself: another
# process may run on another core at another speed.
SETUP_SAMPLE_INTERVAL_S = 0.01
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import speed
probe = speed.SpeedProbe(interval=%r)
with probe:
    import contextlib, io
    import polarvalues.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = polarvalues.cli.main(sys.argv[3:])
print(probe.reference_s, probe.wall_s)
sys.exit(code)
""" % SETUP_SAMPLE_INTERVAL_S

MODULES = ("cli", "detector", "nonproper", "groebner", "univar")
TARGETS = [
    ("cli.main", "polarvalues.cli", "main"),
    ("cli.parse_polynomial", "polarvalues.cli", "parse_polynomial"),
    ("cli.run", "polarvalues.cli", "run"),
    ("cli.reports_to_json", "polarvalues.cli", "reports_to_json"),
    ("detector.run_super_polar", "polarvalues.detector", "run_super_polar"),
    ("detector.run_iterated_polar", "polarvalues.detector",
     "run_iterated_polar"),
    ("detector.critical_values", "polarvalues.detector", "critical_values"),
    ("detector.is_singular_locus_finite", "polarvalues.detector",
     "is_singular_locus_finite"),
    ("nonproper.nonproperness_values", "polarvalues.nonproper",
     "nonproperness_values"),
    ("nonproper.fiber_relation", "polarvalues.nonproper", "fiber_relation"),
    ("nonproper.ValueSet.from_rho", "polarvalues.nonproper",
     "ValueSet.from_rho"),
    ("groebner.eliminate", "polarvalues.groebner", "eliminate"),
    ("groebner.graded_basis", "polarvalues.groebner", "graded_basis"),
    ("groebner.affine_dimension", "polarvalues.groebner", "affine_dimension"),
    ("groebner.buchberger", "polarvalues.groebner", "buchberger"),
    ("univar.rational_roots", "polarvalues.univar", "rational_roots"),
    ("univar.approx_roots_with_status", "polarvalues.univar",
     "approx_roots_with_status"),
    ("univar.gcd_univar", "polarvalues.univar", "gcd_univar"),
    ("univar.squarefree_part", "polarvalues.univar", "squarefree_part"),
]


# ---------------------------------------------------------------------------
# environment and set-up


def import_package():
    """Import polarvalues from this checkout's src/, or exit with code 2."""
    if not (SRC / "polarvalues" / "__init__.py").is_file():
        sys.exit("error: %s/polarvalues not found; run from a checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    import polarvalues.cli

    if Path(polarvalues.__file__).resolve().parent != SRC / "polarvalues":
        sys.exit("error: imported polarvalues from %s, not from %s"
                 % (polarvalues.__file__, SRC))
    return polarvalues.cli


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def measure_setup():
    """Median (reference, wall) seconds for import plus one tiny report,
    each in a fresh interpreter.

    The first interpreter is not timed: it may compile the byte code.
    """
    reference, wall = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(HERE), str(SRC)]
            + WARMUP_ARGV,
            capture_output=True, text=True, timeout=120, check=True)
        if k:
            seconds = done.stdout.strip().splitlines()[-1].split()
            reference.append(float(seconds[0]))
            wall.append(float(seconds[1]))
    return statistics.median(reference), statistics.median(wall)


# ---------------------------------------------------------------------------
# running reports


def run_case(cli, case, probe=None):
    """(seconds, mismatches) of one report; only cli.main is timed.

    With a ``speed.SpeedProbe`` the seconds are reference seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if probe is None:
            began = time.perf_counter()
            code = cli.main(list(case.argv))
            seconds = time.perf_counter() - began
        else:
            with probe:
                code = cli.main(list(case.argv))
            seconds = probe.reference_s
    if code != 0:
        return seconds, ["exit %d: %s" % (code, err.getvalue().strip())]
    return seconds, oracle.check(case, out.getvalue())


class Tally:
    """Per-report times and the failures."""

    def __init__(self):
        self.times = []
        self.failures = []
        self.speeds = []

    def add(self, case, seconds, errors, probe=None):
        if probe is None:
            print("report %.4f s %s" % (seconds, case.label), flush=True)
        else:
            print("report %.4f s (wall %.4f s, speed %.3f) %s" % (
                seconds, probe.wall_s, probe.mean_speed(),
                case.label), flush=True)
            self.speeds.extend(probe.speeds)
        self.times.append(seconds)
        if errors:
            self.failures.append((case, errors))

    def report_s(self):
        """Mean seconds per report; runs are whole passes over a panel."""
        return sum(self.times) / len(self.times)


def tail(times):
    """(percentile, seconds) with at least ten samples above it, or None."""
    n = len(times)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def passes(cases, seconds):
    """Whole passes over the cases until ``seconds`` have gone by."""
    began = time.perf_counter()
    while True:
        yield from cases
        if time.perf_counter() - began >= seconds:
            return


def run_untraced(cli, cases, seconds):
    """The tally in reference seconds and the run's wall seconds."""
    tally = Tally()
    probe = speed.SpeedProbe()
    began = time.perf_counter()
    for case in passes(cases, seconds):
        tally.add(case, *run_case(cli, case, probe), probe=probe)
    return tally, time.perf_counter() - began


def run_traced(cli, cases, unreached):
    """One pass, each case untraced and traced; per-layer figures have no
    bound, so one pass is enough."""
    from tracer import Tracer

    plain, traced = Tally(), Tally()
    tracer = Tracer("polarvalues", TARGETS, observers=OBSERVERS)
    for k, case in enumerate(cases):
        # alternate which run of the pair goes first: the second one of a
        # pair finds the package's lazy caches warmer
        for traced_run in (k % 2, 1 - k % 2):
            if traced_run:
                with tracer:
                    traced.add(case, *run_case(cli, case))
                tracer.request += 1
            else:
                plain.add(case, *run_case(cli, case))
    missing = [name for name, _, _ in TARGETS
               if name not in unreached and not tracer.calls(name)]
    if missing:
        sys.exit("error: traced run never called %s" % ", ".join(missing))
    return plain, traced, tracer


def write_spans(tracer, workload, seed):
    """Write the spans as JSON lines under perfbench/out/; returns the path."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return path


# ---------------------------------------------------------------------------
# per-layer counts taken from call arguments and results


def _bits(polys):
    return sum(abs(c.numerator).bit_length()
               + (c.denominator.bit_length() if c.denominator != 1 else 0)
               for p in polys for c in p.terms.values())


def _is_unit(polys):
    return len(polys) == 1 and polys[0].is_constant()


def _eliminate(tracer, args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    keep = args[1] if len(args) > 1 else kwargs["keep"]
    tracer.count("groebner.eliminate.stages", ideal.ring.nvars - len(set(keep)))
    tracer.count("groebner.eliminate.out_bits", _bits(result))
    tracer.count("groebner.unit_results", _is_unit(result))


def _graded_basis(tracer, args, kwargs, result):
    tracer.count("groebner.graded_basis.out_bits", _bits(result))
    tracer.count("groebner.unit_results", _is_unit(result))


def _detector_run(tracer, args, kwargs, report):
    tracer.count("detector.attempts", sum(r.attempts for r in report.runs))
    tracer.count("detector.runs", len(report.runs))


OBSERVERS = {
    "groebner.eliminate": _eliminate,
    "groebner.graded_basis": _graded_basis,
    "groebner.affine_dimension": lambda t, a, k, r: t.count(
        "groebner.unit_results", r < 0),
    "groebner.buchberger": lambda t, a, k, r: t.count(
        "groebner.unit_results", r.contains_one()),
    "univar.approx_roots_with_status": lambda t, a, k, r: t.count(
        "univar.approx_roots_with_status.unconverged", not r[1]),
    "detector.run_super_polar": _detector_run,
    "detector.run_iterated_polar": _detector_run,
}


def per_layer(tracer, plain, traced):
    """Per-layer metrics as means per traced report: (value, unit)."""
    reports = len(traced.times)
    m = {}

    def calls(name):
        m[name + ".calls"] = (tracer.calls(name) / reports, "count")

    def seconds(name, *names):
        m[name] = (tracer.inclusive_s(names) / reports, "s")

    def self_s(name, predicate):
        m[name] = (tracer.self_s(predicate) / reports, "s")

    def counted(name, unit="count"):
        m[name] = (tracer.counts.get(name, 0) / reports, unit)

    for name in ("groebner.eliminate", "groebner.graded_basis",
                 "groebner.affine_dimension", "groebner.buchberger"):
        calls(name)
        seconds(name + ".s", name)
    counted("groebner.eliminate.stages")
    counted("groebner.eliminate.out_bits", "bit")
    counted("groebner.graded_basis.out_bits", "bit")
    counted("groebner.unit_results")
    calls("nonproper.nonproperness_values")
    self_s("nonproper.nonproperness_values.self_s",
           lambda n: n == "nonproper.nonproperness_values")
    for name in ("nonproper.fiber_relation", "nonproper.ValueSet.from_rho",
                 "univar.rational_roots", "univar.approx_roots_with_status"):
        calls(name)
        seconds(name + ".s", name)
    counted("univar.approx_roots_with_status.unconverged")
    seconds("univar.gcd.s", "univar.gcd_univar", "univar.squarefree_part")
    for name in ("detector.run_super_polar", "detector.run_iterated_polar",
                 "detector.critical_values",
                 "detector.is_singular_locus_finite"):
        seconds(name + ".s", name)
    counted("detector.attempts")
    m["detector.runs_per_attempt"] = (
        tracer.counts.get("detector.runs", 0)
        / max(tracer.counts.get("detector.attempts", 0), 1), "ratio")
    for module in MODULES:
        self_s(module + ".self_s", lambda n: n.startswith(module + "."))
    m["trace.overhead_s"] = (traced.report_s() - plain.report_s(), "s")
    m["trace.coverage"] = (
        tracer.self_s(lambda n: True) / sum(traced.times), "ratio")
    m["trace.observer_s"] = (tracer.observer_s / reports, "s")
    return m


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    cli = import_package()
    unreached = WORKLOADS[args.workload][1]
    cases = panel(args.workload, args.seed)
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment %s" % json.dumps(env))

    setup_s, setup_wall_s = measure_setup() if not args.trace else (None,
                                                                     None)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARMUP_ARGV)
    if args.trace:
        plain, tally, tracer = run_traced(cli, cases, unreached)
        metrics = per_layer(tracer, plain, tally)
        print("spans %d written to %s" % (
            len(tracer.spans),
            write_spans(tracer, args.workload, args.seed).relative_to(ROOT)))
        failures = plain.failures + tally.failures
        attempted = len(plain.times) + len(tally.times)
    else:
        tally, wall = run_untraced(cli, cases, args.seconds)
        failures, attempted = tally.failures, len(tally.times)
        mean_speed = statistics.fmean(tally.speeds)
        metrics = {
            "report_s": (tally.report_s(), "s"),
            "reports_per_s": (
                (attempted - len(failures)) / (wall * mean_speed), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        print("reports %d, %.3f s of workload wall time at mean host speed "
              "%.3f (%d samples)" % (attempted, wall, mean_speed,
                                     len(tally.speeds)))
        print("setup wall median %.6f s" % setup_wall_s)
        print("report median %.6f s over %d reports"
              % (statistics.median(tally.times), attempted))
        spot = tail(tally.times)
        print("report tail %s" % (
            "p%.1f %.6f s" % spot if spot else
            "n/a (needs more than 10 reports)"))
    print("failed_ratio %.4f (%d of %d)"
          % (len(failures) / attempted, len(failures), attempted))
    wrong = 0
    for case, errors in failures:
        known = oracle.only_missing_roots(errors)
        wrong += not known
        print("failure [%s] %s :: %s" % (
            "known defect" if known else "wrong answer", case.label,
            "; ".join(errors)))
    for name, (value, unit) in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
