"""Command-line interface: parsing, configuration, serialization, exit codes."""

import json
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
from polarvalues.fields import QQ
from polarvalues.polynomials import PolynomialRing

VARS = ("x", "y")
R2 = PolynomialRing(VARS, QQ)
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

    @pytest.mark.parametrize("text", ["x^40000*y + x", "x^32767*y + x"])
    def test_exponent_limit_is_2(self, capsys, text):
        # the engine packs exponents below 2**15; going past it is an
        # input limit, not an internal error
        assert main([text, "--vars", "x,y", "--json"]) == 2
        err = capsys.readouterr().err
        assert "exceeds the engine limit" in err
        assert "internal error" not in err

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
        # ideal modulo the first two agenda primes, yet it has the one
        # critical point y = -1/(p0*p1), of value -N/(2*(N - 1))
        p0, p1 = groebner._agenda_prime(0), groebner._agenda_prime(1)
        assert (p0, p1) == (2**62 - 57, 2**62 - 87)
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
        # the gradient (1 + 2*x*y, x^2) is the unit ideal
        assert any(
            w.startswith("the unit ideal rests on two prime votes; its "
                         "certificate in (x, y),")
            for w in warnings
        )

    def test_method_both_text(self, capsys):
        assert main(
            ["x + x^2*y", "--vars", "x,y", "--method", "both", "--runs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "super_polar" in out
        assert "iterated_polar" in out

    def test_cli_reproducible(self, capsys):
        argv = ["x + x^2*y", "--vars", "x,y", "--json", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
