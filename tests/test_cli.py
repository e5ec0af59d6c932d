"""Command-line interface: parsing, configuration, serialization, exit codes."""

import gc
import inspect
import json
from collections import Counter
from fractions import Fraction

import pytest

from polarvalues import groebner
from polarvalues.cli import (
    CLIError,
    ParseError,
    RunConfig,
    main,
    parse_polynomial,
    render_text,
    reports_to_json,
    run,
)
from polarvalues.detector import DimensionGuardError
from polarvalues.polynomials import Polynomial, PolynomialRing

VARS = ("x", "y")
R2 = PolynomialRing(VARS)
X, Y = R2.variable("x"), R2.variable("y")


class TestParsing:
    def test_basic_sum(self):
        assert parse_polynomial("x + x^2*y", VARS) == X + X**2 * Y

    def test_whitespace_insignificant(self):
        assert parse_polynomial("  x+ x ^ 2 * y ", VARS) == X + X**2 * Y

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x - 3*y", VARS)
        assert p == R2.constant(Fraction(1, 2)) * X - 3 * Y

    def test_leading_sign(self):
        assert parse_polynomial("-x + y", VARS) == -X + Y
        assert parse_polynomial("+x", VARS) == X

    def test_repeated_coefficients_multiply(self):
        assert parse_polynomial("2*3*x*x", VARS) == 6 * X**2

    def test_like_terms_cancel(self):
        assert parse_polynomial("x - x + y", VARS) == Y

    def test_trailing_operator_offset(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + ", VARS)
        assert err.value.position == 4

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + w", VARS)
        assert "w" in str(err.value)
        assert err.value.position == 4

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^-1", VARS)
        assert err.value.position == 2

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("1/0*x", VARS)
        assert err.value.position == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + (y)", VARS)
        assert err.value.position == 4

    def test_missing_operator_between_terms(self):
        with pytest.raises(ParseError):
            parse_polynomial("x y", VARS)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.method == "super_polar"
        assert cfg.output == "text"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="nonsense"),
            dict(runs=0),
            dict(coeff_bound=1),
            dict(output="yaml"),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(CLIError):
            RunConfig(**kwargs)


class TestSerialization:
    def make_reports(self, method="super_polar", runs=2):
        cfg = RunConfig(method=method, seed=0, runs=runs)
        return cfg, run(cfg, X + X**2 * Y)

    def test_json_shape(self):
        _, reports = self.make_reports()
        payload = json.loads(reports_to_json(reports))
        assert payload["schema"] == 1
        assert payload["method"] == "super_polar"
        assert payload["variables"] == ["x", "y"]
        assert payload["degree"] == 3
        assert payload["s_final"]["roots"]["rational"] == ["0"]
        assert payload["bounds"]["nk"] == 3

    def test_json_integers_are_strings(self):
        # arbitrary-precision values cross the boundary as decimal strings
        _, reports = self.make_reports()
        payload = json.loads(reports_to_json(reports))
        assert isinstance(payload["config"]["seed"], str)
        for entry in payload["runs"]:
            assert isinstance(entry["seed"], str)
            assert all(isinstance(c, str) for c in entry["rho"])
        assert all(isinstance(c, str) for c in payload["s_final"]["rho"])

    def test_json_byte_identical_across_processes(self):
        cfg = RunConfig(seed=0, runs=2)
        first = reports_to_json(run(cfg, X + X**2 * Y))
        second = reports_to_json(run(cfg, X + X**2 * Y))
        assert first == second

    def test_both_methods_wrapper(self):
        _, reports = self.make_reports(method="both", runs=1)
        payload = json.loads(reports_to_json(reports))
        assert payload["method"] == "both"
        assert [r["method"] for r in payload["reports"]] == [
            "super_polar",
            "iterated_polar",
        ]

    def test_iterated_steps_serialized(self):
        cfg = RunConfig(method="iterated_polar", seed=0, runs=1)
        payload = json.loads(reports_to_json(run(cfg, X + X**2 * Y)))
        steps = payload["runs"][0]["steps"]
        assert [s["index"] for s in steps] == [1]

    def test_text_render_sections(self):
        _, reports = self.make_reports(runs=1)
        text = render_text(reports[0])
        assert "input:" in text
        assert "s_final" in text
        assert "critical values" in text
        assert "bounds:" in text
        assert "rational roots: 0" in text


class TestMainExitCodes:
    def test_success_text(self, capsys):
        assert main(["x + x^2*y", "--vars", "x,y"]) == 0
        out = capsys.readouterr().out
        assert "s_final" in out
        assert "rational roots: 0" in out

    def test_success_json(self, capsys):
        assert main(["x + x^2*y", "--vars", "x,y", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_final"]["roots"]["rational"] == ["0"]

    def test_parse_error_is_2(self, capsys):
        assert main(["x + ", "--vars", "x,y"]) == 2
        assert "offset 4" in capsys.readouterr().err

    def test_undeclared_variable_is_2(self, capsys):
        assert main(["x + w", "--vars", "x,y"]) == 2
        assert "w" in capsys.readouterr().err

    def test_constant_rejected(self, capsys):
        assert main(["3", "--vars", "x,y"]) == 2
        assert "non-constant" in capsys.readouterr().err

    def test_single_variable_rejected(self, capsys):
        assert main(["x", "--vars", "x"]) == 2
        assert "two variables" in capsys.readouterr().err

    def test_no_source_rejected(self, capsys):
        assert main(["--vars", "x,y"]) == 2
        capsys.readouterr()

    def test_two_sources_rejected(self, tmp_path, capsys):
        path = tmp_path / "poly.txt"
        path.write_text("x + y")
        assert main(["x", "--file", str(path), "--vars", "x,y"]) == 2
        assert "either" in capsys.readouterr().err

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "poly.txt"
        path.write_text("x + x^2*y\n")
        assert main(["--file", str(path), "--vars", "x,y", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_final"]["roots"]["rational"] == ["0"]

    def test_missing_file_is_2(self, capsys):
        assert main(["--file", "/nonexistent/poly.txt", "--vars", "x,y"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_argparse_failure_is_2(self, capsys):
        assert main(["x + y"]) == 2  # --vars is required
        capsys.readouterr()

    def test_leading_minus_one_term_input(self, capsys):
        # argparse read '-x^2*y', which starts with a minus and holds no
        # space, as an unknown option, and the run exited 2
        argv = ["--vars", "x,y", "--runs", "1", "--json"]
        assert main(["-x^2*y"] + argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--", "-x^2*y"]) == 0
        assert capsys.readouterr().out == bare
        assert json.loads(bare)["input"] == "-x^2*y"

    @pytest.mark.parametrize("argv", [
        ["x + y", "--bogus"],
        ["--bogus", "x + y"],
        ["-x^2*y", "--bogus"],
        ["-x^2*y", "x + y"],
        ["-x", "-y"],
    ])
    def test_unknown_arguments_are_2(self, capsys, argv):
        assert main(argv + ["--vars", "x,y", "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_dimension_guard_is_3(self, monkeypatch, capsys):
        import polarvalues.cli as cli

        def explode(*args, **kwargs):
            raise DimensionGuardError("exhausted", dimensions=(2, 2, 2))

        monkeypatch.setattr(cli, "run_super_polar", explode)
        assert main(["x + y", "--vars", "x,y"]) == 3
        assert "exhausted" in capsys.readouterr().err

    def test_internal_error_is_4(self, monkeypatch, capsys):
        import polarvalues.cli as cli

        def explode(*args, **kwargs):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli, "run_super_polar", explode)
        assert main(["x + y", "--vars", "x,y"]) == 4
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["0", "-1", "1", "nan", "inf"])
    def test_tolerance_out_of_range_is_2(self, capsys, tolerance):
        # a tolerance outside (0, 1) used to run and mark far-off roots
        # converged (inf) or warn about a tolerance nobody could meet (nan)
        argv = ["x^3 - 3*x + y^2", "--vars", "x,y", "--runs", "1"]
        assert main(argv + ["--tolerance=" + tolerance, "--json"]) == 2
        captured = capsys.readouterr()
        assert "tolerance must be a number in (0, 1)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["x^40000*y + x", "x^32767*y + x"])
    def test_exponent_limit_is_2(self, capsys, text):
        # the engine packs exponents below 2**15; going past it is an
        # input limit, not an internal error
        assert main([text, "--vars", "x,y", "--json"]) == 2
        err = capsys.readouterr().err
        assert "exceeds the engine limit" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("text", ["x^40000 + y", "x^32767*y + x"])
    def test_over_limit_degree_is_2_before_any_work(
        self, capsys, monkeypatch, text
    ):
        # the iterated polar method used to expand (a*x + b*y)^40000, which
        # outlasts any run, before the engine's exponent check could fire
        def expand(self, matrix):
            raise AssertionError("expanded a power above the engine limit")

        monkeypatch.setattr(Polynomial, "substitute_linear", expand)
        argv = [text, "--vars", "x,y", "--method", "iterated_polar", "--json"]
        assert main(argv) == 2
        assert "exceeds the engine limit" in capsys.readouterr().err

    def test_large_rational_critical_values_listed(self, capsys):
        # (x^3 - 3*x + y^2)(x + 2*y, 2*y) + c has critical values c - 2 and
        # c + 2, whose numerators are far beyond trial division
        text = (
            "x^3 + 6*x^2*y + 12*x*y^2 + 8*y^3 + 4*y^2 - 3*x - 6*y"
            " + 638828141659/776"
        )
        argv = [text, "--vars", "x,y", "--method", "both", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        c = Fraction(638828141659, 776)
        for report in payload["reports"]:
            roots = report["critical_values"]["roots"]["rational"]
            assert [Fraction(r) for r in roots] == [c - 2, c + 2]
            assert report["s_final"]["roots"]["rational"] == []

    def test_critical_value_beyond_float_range(self, capsys):
        # the critical value 10^400 does not fit a float: the report still
        # succeeds and lists it exactly
        big = 10**400
        argv = ["x^2 + y^2 + %d" % big, "--vars", "x,y", "--runs", "1"]
        assert main(argv + ["--json"]) == 0
        critical = json.loads(capsys.readouterr().out)["critical_values"]
        assert critical["roots"]["rational"] == [str(big)]
        assert len(critical["roots"]["approx"]) == 1

    def test_exact_critical_values_at_a_loose_tolerance(self, capsys):
        # the critical values -2 and 2 are rational: their approximations
        # are their floats, not -1.98-0.09i and 2.18+0.41i, which merely
        # met the tolerance 0.5
        argv = ["x^3 - 3*x + y^2", "--vars", "x,y", "--tolerance", "0.5",
                "--json"]
        assert main(argv) == 0
        critical = json.loads(capsys.readouterr().out)["critical_values"]
        assert critical["roots"]["rational"] == ["-2", "2"]
        assert critical["roots"]["approx"] == [[-2.0, 0.0], [2.0, 0.0]]

    def test_unconverged_critical_value_warned(self, capsys):
        # the approximate critical root 10^400 comes back as an infinity,
        # unconverged, and the report must say so
        argv = ["x^2 + y^2 + %d" % 10**400, "--vars", "x,y", "--runs", "1"]
        assert main(argv + ["--json"]) == 0
        warnings = json.loads(capsys.readouterr().out)["warnings"]
        assert (
            "critical values: numeric root refinement did not meet tolerance"
            in warnings
        )

    def test_critical_value_hidden_from_two_agenda_primes(self, capsys):
        # the gradient x + y + 1, x + N*y + 2 with N = 1 + p0*p1 is the unit
        # ideal modulo the first two primes of a chain, the narrow agenda's
        # first and the wide agenda's first, yet it has the one critical
        # point y = -1/(p0*p1), of value -N/(2*(N - 1))
        p0 = groebner._agenda_prime(0)
        p1 = groebner._agenda_prime(0, wide=True)
        assert (p0, p1) == (
            (2**60 - 85) * 2**60 + 1, (2**120 - 55) * 2**120 + 1
        )
        big = 1 + p0 * p1
        text = "1/2*x^2 + x*y + x + %d/2*y^2 + 2*y" % big
        argv = [text, "--vars", "x,y", "--runs", "1", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        roots = payload["critical_values"]["roots"]["rational"]
        assert [Fraction(r) for r in roots] == [Fraction(-big, 2 * (big - 1))]
        assert payload["warnings"] == []

    def test_uncertified_results_are_warned(self, monkeypatch, capsys):
        # with no room for exact checks every certificate is too large to
        # run: the fresh-prime verdicts stand and the report names them
        monkeypatch.setattr(groebner, "_EXACT_CHECK_BIT_CAP", 0)
        argv = ["x + x^2*y", "--vars", "x,y", "--runs", "1", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_final"]["rho"] == ["0", "1"]
        warnings = payload["warnings"]
        for kept in ("x, z", "y, z"):
            assert any(
                w.startswith("the elimination onto (%s) rests on fresh-prime "
                             "agreement" % kept)
                for w in warnings
            )
        # the gradient (1 + 2*x*y, x^2) is the unit ideal; the singular
        # locus is read off its graph, which critical_values shares
        assert any(
            w.startswith("the unit ideal rests on two prime votes; its "
                         "certificate in (x, y, z),")
            for w in warnings
        )

    def test_method_both_text(self, capsys):
        assert main(
            ["x + x^2*y", "--vars", "x,y", "--method", "both", "--runs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "super_polar" in out
        assert "iterated_polar" in out

    def test_method_both_computes_critical_values_once(
        self, monkeypatch, capsys
    ):
        # both reports share one critical set: its values are computed
        # once, and the singular-locus question reads the certificate of
        # the same gradient graph, so three certificates are built (that
        # graph's and one curve graph per method), not five
        from polarvalues import detector

        calls = {"critical_values": 0, "builds": 0}
        critical_values = detector.critical_values
        build = groebner._Certificate._build

        def counting_values(*args):
            calls["critical_values"] += 1
            return critical_values(*args)

        def counting_build(certificate):
            calls["builds"] += 1
            build(certificate)

        monkeypatch.setattr(detector, "critical_values", counting_values)
        monkeypatch.setattr(groebner._Certificate, "_build", counting_build)
        argv = ["x + x^2*y", "--vars", "x,y", "--method", "both",
                "--runs", "1", "--json"]
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert calls == {"critical_values": 1, "builds": 3}
        assert reports[0]["critical_values"] == reports[1]["critical_values"]

    def test_cli_reproducible(self, capsys):
        argv = ["x + x^2*y", "--vars", "x,y", "--json", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestReportWork:
    def test_no_certificate_outlives_its_report(self, capsys):
        # a certificate keeps its ideal's ring and generators, never the
        # Ideal that keeps it, so no cycle holds it until the cycle
        # collector runs
        def certificates():
            return sum(
                isinstance(o, groebner._Certificate) for o in gc.get_objects()
            )

        argv = ["x^2*y", "--vars", "x,y", "--method", "both", "--json"]
        gc.collect()
        gc.disable()
        try:
            before = certificates()
            assert main(argv) == 0
            after = certificates()
        finally:
            gc.enable()
        capsys.readouterr()
        assert after == before

    def test_no_function_of_a_report_is_left_in_a_cycle(self, capsys):
        # a nested function that calls itself through its closure cell is
        # a cycle that keeps its cells, and what they hold, until the cycle
        # collector runs
        argv = ["x^2*y", "--vars", "x,y", "--method", "both", "--json"]
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            left = sorted(
                o.__qualname__ for o in gc.garbage
                if inspect.isfunction(o)
                and o.__module__.startswith("polarvalues")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        capsys.readouterr()
        assert left == []

    def test_buchberger_work_of_one_report_by_kind(self, monkeypatch, capsys):
        # the golden x_plus_x2y_xyu_super_polar reports (seed 0) at bounds
        # 5 and 9999: each stage runs in full at its first prime and
        # replays its whole trace, zeros included, at every later one, so
        # these counts move only when the modular chain does more or less
        # work.  Each graph ideal's certificate is its curve's, and the
        # seed of each graph chain, that certificate's basis, never runs:
        # its root stages reduce it directly.  The chain of the (x_i, z)
        # planes races its contested root stages at its first prime, and
        # stops the dearest one, the stage that drops x, before its end.
        # At bound 5 every chain lifts and proves its outputs at its first
        # prime, so nothing is replayed; at 9999 two chains take two primes
        # each (see the test below), and the stages still needed replay
        # their whole traces, each trace once, 14 zeros in all, at the
        # second prime (three primes and 35 zeros with 120-bit later
        # primes).  An output whose risk is within the bound 1/8 is tried
        # at its first prime, and no output votes, so no stage replays only
        # for a vote; the old per-coefficient margin left one output to a
        # vote, which replayed two more stages (4 replays with zeros, 21
        # zeros)
        work = Counter()
        core = groebner._core_buchberger
        replay = groebner._replay_buchberger
        replay_entry = groebner._ModularArith.replay

        def counting_core(gens, engine, trace):
            # a root stage that a race stops is closed before its end
            try:
                basis = yield from core(gens, engine, trace)
            except GeneratorExit:
                work["stopped"] += 1
                raise
            work["full"] += 1
            return basis

        def counting_replay(gens, engine, trace):
            if any(lt is None for _, lt, _, _ in trace.entries):
                work["replays with zeros"] += 1
            else:
                work["replays without zeros"] += 1
            return replay(gens, engine, trace)

        def counting_replay_entry(self, target, schedule, tails, lt):
            # a zero's schedule leaves no key
            if not schedule[1]:
                work["zeros replayed"] += 1
            return replay_entry(self, target, schedule, tails, lt)

        monkeypatch.setattr(groebner, "_core_buchberger", counting_core)
        monkeypatch.setattr(groebner, "_replay_buchberger", counting_replay)
        monkeypatch.setattr(
            groebner._ModularArith, "replay", counting_replay_entry
        )
        argv = ["x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
                "--runs", "1", "--coeff-bound", "5", "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert work == Counter({"full": 8, "stopped": 1})
        work.clear()
        argv[-2] = "9999"
        assert main(argv) == 0
        capsys.readouterr()
        assert work == Counter({
            "full": 8,
            "stopped": 1,
            "replays with zeros": 2,
            "replays without zeros": 1,
            "zeros replayed": 14,
        })

    def test_primes_of_each_chain_of_one_report(self, monkeypatch, capsys):
        # the golden x_plus_x2y_xyu_super_polar_bound9999 report: the primes
        # each modular chain runs, in the order the chains start.  With
        # 62-bit primes they took 2, 6, 7 and 2; a 120-bit prime lifts
        # almost twice the bits (2, 4, 4 and 2), and an output proved at
        # the prime that first reconstructs it needs no second vote (1, 3,
        # 3 and 1).  The first two chains lift the certificates of the
        # gradient's and the curve's graphs: each is now its base's graded
        # basis, in one variable fewer, and the curve's takes two primes
        # where the homogenized graph's took three.  Every prime after a
        # chain's first is a 240-bit one, which lifts twice the bits of a
        # 120-bit one, so the third chain's three primes became two
        chains = []
        stack = []
        modular_chain = groebner._modular_chain
        chain_mod_p = groebner._chain_mod_p

        def counting_chain(*args, **kwargs):
            stack.append(len(chains))
            chains.append(set())
            try:
                return modular_chain(*args, **kwargs)
            finally:
                stack.pop()

        def counting_chain_mod_p(p, *args):
            chains[stack[-1]].add(p)
            return chain_mod_p(p, *args)

        monkeypatch.setattr(groebner, "_modular_chain", counting_chain)
        monkeypatch.setattr(groebner, "_chain_mod_p", counting_chain_mod_p)
        argv = ["x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
                "--runs", "1", "--seed", "0", "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert [len(primes) for primes in chains] == [1, 2, 2, 1]

    def test_euclid_runs_of_one_report(self, monkeypatch, capsys):
        # the golden x_plus_x2y_xyu_super_polar reports (seed 0) at bounds
        # 5 and 9999: the Euclid runs of rational reconstruction.  A
        # coefficient keeps its last value while the new residue agrees,
        # and each output is monic, so after its first coefficient with
        # the output's denominator every other is residue*D/D; Euclid ran
        # on every other coefficient too before (171 and 179 runs)
        runs = Counter()
        euclid = groebner._rational_reconstruct

        def counting_euclid(residue, modulus):
            runs[argv[-2]] += 1
            return euclid(residue, modulus)

        monkeypatch.setattr(groebner, "_rational_reconstruct", counting_euclid)
        argv = ["x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
                "--runs", "1", "--coeff-bound", "5", "--json"]
        assert main(argv) == 0
        argv[-2] = "9999"
        assert main(argv) == 0
        capsys.readouterr()
        assert runs == Counter({"5": 19, "9999": 26})

    def test_acceptances_of_one_report_by_kind(self, monkeypatch, capsys):
        # the golden x_plus_x2y_xyu_super_polar_bound9999 report (seed 0):
        # how each chain output was put forward to the exact check that
        # accepted it, by a one-prime offer within the risk bound
        # (`_CrtState.early`) or by a vote (`lift`), and the tries that
        # check refuted.  Every output is offered at the prime that first
        # reconstructs it: the old per-coefficient margin left one of the
        # six to a vote (5 early, 1 vote)
        kinds = Counter()
        offered = [None]
        lift = groebner._CrtState.lift
        early = groebner._CrtState.early
        covers = groebner._Certificate.covers
        basis_check = groebner._exact_basis_check

        def recording_lift(self, p, image):
            candidate = lift(self, p, image)
            offered[0] = "vote" if candidate is not None else None
            return candidate

        def recording_early(self):
            candidate = early(self)
            if candidate is not None:
                offered[0] = "early"
            return candidate

        def counted(verdict):
            kinds["refuted" if verdict is False else offered[0]] += 1
            return verdict

        monkeypatch.setattr(groebner._CrtState, "lift", recording_lift)
        monkeypatch.setattr(groebner._CrtState, "early", recording_early)
        monkeypatch.setattr(
            groebner._Certificate, "covers",
            lambda self, elems: counted(covers(self, elems)),
        )
        monkeypatch.setattr(
            groebner, "_exact_basis_check",
            lambda *args: counted(basis_check(*args)),
        )
        argv = ["x + x^2*y", "--vars", "x,y,u", "--runs", "1",
                "--coeff-bound", "9999", "--seed", "0", "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert kinds == Counter({"early": 6})

    def test_tail_operations_of_one_report(self, monkeypatch, capsys):
        # the golden x_plus_x2y_xyu_super_polar reports (seed 0) at bounds
        # 5 and 9999: the reducer terms added, by `reduce` (each chain's
        # full runs and their inter-reductions, all at its first prime
        # here) and by `replay` (its later primes).  A one-variable stage
        # top-reduces inside its run and inter-reduces only the elements
        # free of its variable, the ones it hands on; reducing every
        # element fully added 12,376 at bound 5, and 12,548 and 10,758 in
        # replays at 9999.  The replays of a vote that the risk bound
        # saves added 1,500 more (9,065)
        ops = Counter()
        reduce = groebner._ModularArith.reduce
        replay = groebner._ModularArith.replay

        def counting_reduce(self, target, reducers, steps, signature=None):
            start = len(steps)
            result = reduce(self, target, reducers, steps, signature)
            tails = {red[0]: len(red[1]) for red in reducers}
            ops[argv[-2], "reduce"] += sum(
                tails[lt] for lt in steps[start + 1::2]
            )
            return result

        def counting_replay(self, target, schedule, tails, lt):
            ops[argv[-2], "replay"] += sum(
                len(tails[rt]) for rt in schedule[0][1::2]
            )
            return replay(self, target, schedule, tails, lt)

        monkeypatch.setattr(groebner._ModularArith, "reduce", counting_reduce)
        monkeypatch.setattr(groebner._ModularArith, "replay", counting_replay)
        argv = ["x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
                "--runs", "1", "--coeff-bound", "5", "--json"]
        assert main(argv) == 0
        argv[-2] = "9999"
        assert main(argv) == 0
        capsys.readouterr()
        assert ops == Counter({
            ("5", "reduce"): 10_465,
            ("9999", "reduce"): 10_609,
            ("9999", "replay"): 7_565,
        })
