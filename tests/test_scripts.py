"""Smoke tests for the command-line scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_bounds_table_superpolar_cell():
    proc = run_script("bounds_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("superpolar values per curve")
    header = lines[start + 1].split()
    assert header[0] == "d\\n"
    column = header.index("3")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.strip():
            break
        cells = line.split()
        rows[cells[0]] = cells
    # d^(n-1) - 1 values per super-polar curve: 3^2 - 1 at d = 3, n = 3
    assert rows["3"][column] == "8"


def test_run_examples_help():
    proc = run_script("run_examples.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--coeff-bound" in proc.stdout


def test_run_examples_end_to_end():
    # every example at the script's defaults, the unit-ideal-heavy x (n=2)
    # included; x + x^2*y detects the value 0 with both methods
    proc = run_script("run_examples.py")
    assert proc.returncode == 0, proc.stderr
    rows = {}
    for line in proc.stdout.splitlines()[2:]:
        rows[line[:18].strip(), line[19:34].strip()] = line[35:63].strip()
    assert len(rows) == 12
    for n in (2, 3):
        for method in ("super_polar", "iterated_polar"):
            assert rows["x + x^2*y (n=%d)" % n, method].startswith("{0}")
    assert rows["x (n=2)", "super_polar"] == "empty"
