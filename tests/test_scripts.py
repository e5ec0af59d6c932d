"""Smoke tests for the command-line scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

import pytest

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


def _load_bench_json():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_json", SCRIPTS / "bench_json.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_json_parses_a_run_result():
    # canned run.py output: summary lines, then the JSON result line
    bench = _load_bench_json()

    def canned(report_s, rss):
        return "\n".join([
            "workload maps2_shifted seed 1 seconds 10 trace 0",
            'environment {"python": "3.11.7", "cpus": 2}',
            "failed_ratio 0.0000 (0 of 48)",
            "report_s                                         %g s" % report_s,
            '{"correct": true, "attempted": 48, "failed": 0, "metrics": '
            '{"report_s": {"value": %r, "unit": "s"}, '
            '"peak_rss_mb": {"value": %r, "unit": "MB"}}}' % (report_s, rss),
            "",
        ])

    result = bench.parse_result(canned(0.138, 20.5))
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["report_s"] == {"value": 0.138, "unit": "s"}
    assert result["environment"] == {"python": "3.11.7", "cpus": 2}

    pairs = [
        (bench.parse_result(canned(a, 20.5)), bench.parse_result(canned(b, r)))
        for a, b, r in [(0.17, 0.14, 20.4), (0.18, 0.13, 20.6),
                        (0.16, 0.17, 20.5), (0.19, 0.12, 20.4)]
    ]
    summary = bench.summarize(
        pairs, {"report_s": "lower", "peak_rss_mb": "lower"}
    )
    report = summary["report_s"]
    assert report["pairs"] == 4 and report["wins"] == 3
    assert report["unit"] == "s" and report["better"] == "lower"
    assert report["parent"]["median"] == 0.175
    assert report["change"]["runs"] == [0.14, 0.13, 0.17, 0.12]
    assert report["change"]["q1"] <= 0.135 <= report["change"]["q3"]
    assert summary["peak_rss_mb"]["wins"] == 2
    assert bench.parse_seeds("1401-1403,7") == [1401, 1402, 1403, 7]


def test_bench_json_summarizes_and_fails_on_a_bad_run(
    tmp_path, monkeypatch, capsys
):
    # stubbed runs: the file is written, one verdict line per workload
    # follows, and a failed or incorrect run on either side exits 1
    import json

    bench = _load_bench_json()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "small"}, {"name": "large"}],
        "end_to_end": [{"name": "report_s", "better": "lower"}],
    }))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "revision", lambda checkout: "abc1234")
    argv = ["--parent", str(parent), "--change", str(change),
            "--pr", "7", "--seeds", "1-3"]

    for bad, code in [
        (None, 0),
        (("large", "parent", "failed"), 1),
        (("small", "change", "incorrect"), 1),
    ]:
        def run_once(checkout, command, workload, seed, seconds):
            side = checkout.name
            return {
                "correct": bad != (workload, side, "incorrect"),
                "attempted": 10,
                "failed": int(bad == (workload, side, "failed")),
                "metrics": {"report_s": {
                    "value": {"parent": 0.2, "change": 0.1}[side] + seed / 1e3,
                    "unit": "s",
                }},
            }

        monkeypatch.setattr(bench, "run_once", run_once)
        assert bench.main(argv) == code
        (tmp_path / "BENCH_7.json").unlink()  # written before the verdict
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "%s: report_s median parent 0.2020 s, change 0.1020 s; change "
            "won 3 of 3; failed parent %d, change %d; correct parent %s, "
            "change %s" % (
                name,
                3 * (bad == (name, "parent", "failed")),
                3 * (bad == (name, "change", "failed")),
                bad != (name, "parent", "incorrect"),
                bad != (name, "change", "incorrect"),
            )
            for name in ("small", "large")
        ]


def test_bench_json_marks_a_metric_worse_beyond_its_bound(
    tmp_path, monkeypatch, capsys
):
    # synthetic runs: each metric's medians are printed, a change worse
    # than the parent by more than the metric's relative bound is marked
    # whichever its direction, and the exit status still reads only
    # failures and correctness
    import json

    bench = _load_bench_json()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "small"}],
        "end_to_end": [
            {"name": "report_s", "better": "lower", "bound": 0.15},
            {"name": "reports_per_s", "better": "higher", "bound": 0.15},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        ],
    }))
    values = {  # name -> (parent, change, unit)
        "report_s": (0.1, 0.11, "s"),
        "reports_per_s": (10.0, 8.0, "1/s"),
        "setup_s": (2.0, 1.0, "s"),
        "peak_rss_mb": (20.0, 23.0, "MB"),
    }

    def run_once(checkout, command, workload, seed, seconds):
        side = checkout.name == "change"
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {
                name: {"value": value[side], "unit": value[2]}
                for name, value in values.items()
            },
        }

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "revision", lambda checkout: "abc1234")
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--parent", str(parent), "--change", str(change),
                       "--pr", "7", "--seeds", "1-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5:-1] == [
        "small report_s: median parent 0.1 s, change 0.11 s (+10.0%)",
        "small reports_per_s: median parent 10 1/s, change 8 1/s (-20.0%); "
        "WORSE beyond bound 15%",
        "small setup_s: median parent 2 s, change 1 s (-50.0%)",
        "small peak_rss_mb: median parent 20 MB, change 23 MB (+15.0%); "
        "WORSE beyond bound 10%",
    ]


def test_bench_json_revision_needs_its_own_work_tree(tmp_path):
    # a copy without .git names no revision; inside another work tree
    # git would describe that one, so both are refused
    bench = _load_bench_json()
    copy = tmp_path / "copy"
    copy.mkdir()
    for checkout in (copy, SCRIPTS.parent / "scripts"):
        with pytest.raises(SystemExit) as exit_info:
            bench.revision(checkout)
        assert "not the top level of a git work tree" in str(
            exit_info.value
        )
    git = ["git", "-C", str(copy), "-c", "user.name=bench",
           "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "base"],
                   check=True)
    head = subprocess.run(
        git + ["rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert bench.revision(copy).startswith(head[:7])


def test_readme_timing_table_quotes_the_latest_bench_file():
    import json
    import re

    root = SCRIPTS.parent
    latest = max(
        root.glob("BENCH_*.json"),
        key=lambda path: int(re.search(r"\d+", path.name).group()),
    )
    bench = json.loads(latest.read_text())
    readme = (root / "README.md").read_text()
    assert "quoted from `%s`" % latest.name in readme
    for name, workload in bench["workloads"].items():
        median = workload["metrics"]["report_s"]["change"]["median"]
        assert "| `%s` | %.3f s |" % (name, median) in readme
