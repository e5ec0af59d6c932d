"""JSON reports compared byte for byte with reports kept in tests/golden/.

The files were written by ``cli.main([..., "--json"])`` of an earlier
version, so a refactor is checked against the output of the code it
replaced rather than against a second run of itself.  A change that is
meant to alter the output rewrites them in the same change and says why.
"""

from pathlib import Path

import pytest

from polarvalues.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURES = {
    "x_plus_x2y_both": ["x + x^2*y", "--vars", "x,y", "--method", "both"],
    "cubic_x3_3x_y2_both": [
        "x^3 - 3*x + y^2", "--vars", "x,y", "--method", "both",
    ],
    "xy_both": ["x*y", "--vars", "x,y", "--method", "both"],
    "x2_y2_both_force_general": [
        "x^2 + y^2", "--vars", "x,y", "--method", "both", "--force-general",
    ],
    "x_plus_x2y_xyu_iterated": [
        "x + x^2*y", "--vars", "x,y,u", "--method", "iterated_polar",
        "--runs", "1", "--coeff-bound", "5",
    ],
    # the dimension guard rejects two draws before a third passes
    "x_plus_x2y_xyu_iterated_resampled": [
        "x + x^2*y", "--vars", "x,y,u", "--method", "iterated_polar",
        "--runs", "1", "--coeff-bound", "2", "--seed", "9",
    ],
    # one fiber-relation chain per variable of a three-variable curve
    "x_plus_x2y_xyu_super_polar": [
        "x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
        "--runs", "1", "--coeff-bound", "5",
    ],
    # the same chain at the default bound: stage bases of hundreds of kbit
    "x_plus_x2y_xyu_super_polar_bound9999": [
        "x + x^2*y", "--vars", "x,y,u", "--method", "super_polar",
        "--runs", "1", "--seed", "0",
    ],
    # non-finite singular locus: the localized curve shares its t stage
    "x2y_both": ["x^2*y", "--vars", "x,y", "--method", "both"],
    # unit ideals: 11 of the 26 modular chains end in <1>
    "x_both": ["x", "--vars", "x,y", "--method", "both"],
    # a linear map on three variables: 9 of its 15 chains end in <1>
    "x_plus_y_xyu_both": [
        "x + y", "--vars", "x,y,u", "--method", "both",
        "--runs", "1", "--coeff-bound", "5",
    ],
    # a constant term of height 10^12 and a content of 1/3: the graph
    # ideal normalizes the value coordinate, and values are mapped back
    "shifted_scaled_xy_both": [
        "1/3*x^2*y + 2/3*x*y - 1000000000001/7", "--vars", "x,y",
        "--method", "both",
    ],
    # a non-primitive f with a constant term and a non-properness value
    "scaled_x_plus_x2y_both": [
        "3/2*x + 3/4*x^2*y + 5/11", "--vars", "x,y", "--method", "both",
    ],
}


def test_every_golden_file_has_a_fixture():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_json_report_unchanged(name, capsys):
    assert main(FIXTURES[name] + ["--json"]) == 0
    expected = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
