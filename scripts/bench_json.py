#!/usr/bin/env python3
"""Compare two checkouts on the benchmark and write BENCH_<pr>.json.

    python3 scripts/bench_json.py --parent ../base --change . --pr 14 \\
        --seeds 1401-1410

Both checkouts must be git work trees of their own (`git clone`, not
`git archive`), so that the file names the revisions it compares.

For each workload of the change's `BENCHMARK.json` and each seed, the
benchmark command runs once in each checkout at the benchmark's own run
length, one run after the other, the first side alternating from pair to
pair so that slow drift of the host falls on both sides alike.  Each run's
last line of output is its JSON result; the end-to-end metrics it reports
are summarized per workload and metric as each side's median and
quartiles, the number of pairs, and the pairs the change won (its value
better than the parent's in the direction `BENCHMARK.json` gives).  The
file goes to the root of the repository holding this script.

After writing the file the script prints one line per workload and
end-to-end metric: each side's median and the change's relative
difference, marked `WORSE beyond bound` when the change is worse than the
parent by more than the metric's relative `bound` in `BENCHMARK.json`,
which a change that claims no gain must stay within.  Then it prints one
line per workload: each side's median `report_s`, the change's wins, and
each side's failed operations and correctness.  It exits 1 when either
side had a failed or incorrect run, 0 otherwise; a metric beyond its bound
does not change the exit status.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The JSON result of one `perfbench/run.py` run (its last line), with
    the host it ran on (its `environment` line) as "environment"."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("run.py result has no %r" % key)
    for line in lines:
        if line.startswith("environment "):
            result["environment"] = json.loads(line[len("environment "):])
    return result


def parse_seeds(text: str) -> list:
    """'1401-1410' or '3,5,8' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values) -> dict:
    """Median and quartiles (exclusive method) of one side's runs, which
    are kept in pair order."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(pairs, better) -> dict:
    """Per metric: both sides' spreads, the pair count and the change's
    wins.  `pairs` holds (parent result, change result) per pair;
    `better` maps a metric name to "lower" or "higher"."""
    out = {}
    for name, direction in better.items():
        values = {side: [] for side in SIDES}
        wins = 0
        for parent, change in pairs:
            a = parent["metrics"][name]["value"]
            b = change["metrics"][name]["value"]
            values["parent"].append(a)
            values["change"].append(b)
            wins += b < a if direction == "lower" else b > a
        unit = pairs[0][0]["metrics"][name]["unit"]
        out[name] = {
            "unit": unit,
            "better": direction,
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "pairs": len(pairs),
            "wins": wins,
        }
    return out


def median_lines(workloads, bounds) -> list:
    """One line per workload and metric of a report: both sides' medians,
    the change's difference relative to the parent's median (0 when that
    is 0), and `WORSE beyond bound` where the change is worse by more than
    the metric's relative bound in `bounds`."""
    lines = []
    for name, workload in workloads.items():
        for metric, summary in workload["metrics"].items():
            parent = summary["parent"]["median"]
            change = summary["change"]["median"]
            rel = (change - parent) / parent if parent else 0.0
            worse = rel if summary["better"] == "lower" else -rel
            line = "%s %s: median parent %.4g %s, change %.4g %s (%+.1f%%)" % (
                name, metric, parent, summary["unit"], change,
                summary["unit"], 100 * rel,
            )
            bound = bounds.get(metric)
            if bound is not None and worse > bound:
                line += "; WORSE beyond bound %g%%" % (100 * bound)
            lines.append(line)
    return lines


def verdict_lines(workloads) -> list:
    """One line per workload of a report: both sides' median `report_s`,
    the change's wins, and each side's failed count and correctness."""
    lines = []
    for name, workload in workloads.items():
        report = workload["metrics"]["report_s"]
        lines.append(
            "%s: report_s median parent %.4f s, change %.4f s; change won "
            "%d of %d; failed parent %d, change %d; correct parent %s, "
            "change %s" % (
                name, report["parent"]["median"], report["change"]["median"],
                report["wins"], report["pairs"],
                workload["failed"]["parent"], workload["failed"]["change"],
                workload["correct"]["parent"], workload["correct"]["change"],
            )
        )
    return lines


def git(checkout: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True
    )


def revision(checkout: Path) -> str:
    """`git describe` of a checkout, which must be the top level of its own
    git work tree: a copy without `.git` would be described as nothing, or
    as the work tree around it."""
    top = git(checkout, "rev-parse", "--show-toplevel")
    if top.returncode or (
        Path(top.stdout.strip()).resolve() != checkout.resolve()
    ):
        sys.exit(
            "bench_json.py: %s is not the top level of a git work tree; "
            "make each checkout with git clone" % checkout
        )
    return git(checkout, "describe", "--always", "--dirty").stdout.strip()


def run_once(checkout: Path, command, workload: str, seed: int, seconds):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
    )
    return parse_result(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1401-1410")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    report = {
        "pr": args.pr,
        "command": " ".join(command) + " --seconds %g --trace 0" % seconds,
        "seeds": seeds,
        "revisions": {side: revision(checkouts[side]) for side in SIDES},
        "environment": None,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        failed = {side: 0 for side in SIDES}
        correct = {side: True for side in SIDES}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = run_once(
                    checkouts[side], command, workload, seed, seconds
                )
                report["environment"] = results[side].pop("environment", None)
                failed[side] += results[side]["failed"]
                correct[side] &= results[side]["correct"]
                print("%s seed %d %s report_s %.4f" % (
                    workload, seed, side,
                    results[side]["metrics"]["report_s"]["value"]),
                    flush=True)
            pairs.append((results["parent"], results["change"]))
        report["workloads"][workload] = {
            "correct": correct,
            "failed": failed,
            "metrics": summarize(pairs, better),
        }
    out = ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("wrote %s" % out)
    for line in median_lines(report["workloads"], bounds):
        print(line)
    for line in verdict_lines(report["workloads"]):
        print(line)
    clean = all(
        not w["failed"][side] and w["correct"][side]
        for w in report["workloads"].values() for side in SIDES
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
