#!/usr/bin/env python3
"""Interleaved parent/change pairs of the end-to-end benchmark.

Run from anywhere inside the repository:

    python3 tools/perf_pairs.py --base HEAD~1 --workload pubs_budget_spill \
        --pairs 10 --seconds 40 [--seed 1]

The base side is <ref> checked out in a temporary `git worktree`; the change
side is this working tree, uncommitted edits included. Each side builds its
own perfbench (perfbench/run.py) under the temporary directory, so neither
touches .bench_build. Pair i runs both sides once with the same settings,
the base first in even pairs and the change first in odd ones, so a slow
host phase hits both sides alike.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles and, for wall metrics, the pairs the change won (ties count
for neither) and the verdict of the comparison rule under the metric's
`bound`:

  gain          the change won at least 9 in 10 pairs and the medians
                differ, in its favour, by more than the base's IQR;
  worse         the change's median is worse than the base's by more than
                `bound` times the base's median;
  unresolved    either side's IQR exceeds `bound` times its median, and
                not every change run beats every base run;
  within bound  otherwise.

A rate (unit 1/s) widens its spread by (t_base / t_change)^2 against the
seconds it is computed from, so for those the IQR of each side's per-run
`Run median` seconds is printed too. The verdicts inform; they do not set
the exit status. The exact metrics and the reference digest must match bit
for bit across every run of both sides. Exits 1 when a run fails or is not
`correct`, or when an exact value differs; 0 otherwise.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Metrics computed on the simulated clock or from the duplicate set: any
# change that keeps every decision keeps them bit-identical.
EXACT = ("quality_sim", "sim_makespan_s", "final_recall", "precision")
REFERENCE = re.compile(r"reference ([0-9a-f]+) \((\d+) pairs\)")
RUN_MEDIAN = re.compile(r"Run median ([0-9.eE+-]+) s")


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(checkout, build_root, args):
    """One perfbench process; returns (metrics, correct, reference, run_s)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_root))
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perf_pairs: {checkout} printed no result line "
                         f"(exit {proc.returncode})")
    match = REFERENCE.search(proc.stdout)
    run_s = RUN_MEDIAN.search(proc.stdout)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    correct = proc.returncode == 0 and result.get("correct") is True
    return (metrics, correct, match.groups() if match else None,
            float(run_s.group(1)) if run_s else None)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, direction, bound):
    """The comparison rule for one metric over interleaved pairs."""
    sign = 1 if direction == "lower" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if (wins >= math.ceil(0.9 * len(base)) and
            sign * (b_med - c_med) > b_q3 - b_q1):
        return "gain"
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for q1, med, q3 in ((b_q1, b_med, b_q3), (c_q1, c_med, c_q3)))
    sweep = all(sign * (b - c) > 0 for b in base for c in change)
    if spread > bound and not sweep:
        return "unresolved"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path(__file__).resolve().parent, "rev-parse",
                    "--show-toplevel"))
    base_sha = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    tmp = Path(tempfile.mkdtemp(prefix="perf_pairs-"))
    base_tree = tmp / "base"
    git(root, "worktree", "add", "--detach", str(base_tree), base_sha)
    sides = {"base": (base_tree, tmp / "base_build"),
             "change": (root, tmp / "change_build")}
    values = {"base": {}, "change": {}}
    run_seconds = {"base": [], "change": []}
    exact_seen = {}
    failures = []
    try:
        print(f"perf_pairs: {args.workload} seed {args.seed}, "
              f"{args.pairs} pair(s) of {args.seconds:g} s; base "
              f"{base_sha[:12]}, change = working tree at "
              f"{git(root, 'rev-parse', 'HEAD')[:12]}", flush=True)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            row = {}
            for side in order:
                metrics, correct, reference, run_s = run_side(*sides[side],
                                                              args)
                if run_s is not None:
                    run_seconds[side].append(run_s)
                if not correct:
                    failures.append(f"pair {i + 1} {side}: not correct")
                for name, value in metrics.items():
                    values[side].setdefault(name, []).append(value)
                for name in EXACT:
                    exact_seen.setdefault(name, set()).add(
                        repr(metrics.get(name)))
                exact_seen.setdefault("reference digest", set()).add(
                    repr(reference))
                row[side] = metrics
            walls = "  ".join(
                f"{name} {row['base'][name]:.6g}/{row['change'][name]:.6g}"
                for name in better if name not in EXACT)
            print(f"pair {i + 1:2d} ({order[0]} first) base/change: {walls}",
                  flush=True)
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove",
                        "--force", str(base_tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"\n{'metric':<16} {'better':<6} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/base':>11} {'won':>7}  "
          f"verdict (bound)")
    for name, direction in better.items():
        if name not in values["base"] or name not in values["change"]:
            continue
        cols = []
        for side in ("base", "change"):
            q1, median, q3 = quartiles(values[side][name])
            cols.append((median, f"{median:.6g} [{q1:.6g}, {q3:.6g}]"))
        ratio = cols[1][0] / cols[0][0] if cols[0][0] else float("nan")
        if name in EXACT:
            won, rule = "exact", ""
        else:
            sign = 1 if direction == "lower" else -1
            wins = sum(1 for b, c in zip(values["base"][name],
                                         values["change"][name])
                       if sign * (b - c) > 0)
            won = f"{wins}/{args.pairs}"
            rule = verdict(values["base"][name], values["change"][name],
                           direction, bound[name])
            rule += f" ({bound[name]:g})"
        print(f"{name:<16} {direction:<6} {cols[0][1]:<34} {cols[1][1]:<34} "
              f"{ratio:>11.4f} {won:>7}  {rule}")
        if (unit[name] == "1/s" and run_seconds["base"]
                and run_seconds["change"]):
            iqrs = []
            for side in ("base", "change"):
                q1, _, q3 = quartiles(run_seconds[side])
                iqrs.append(f"{side} {q3 - q1:.4g} s")
            print(f"{'':<16} IQR of the Run median seconds behind it: "
                  + ", ".join(iqrs))

    differing = [name for name, seen in exact_seen.items() if len(seen) > 1]
    runs = 2 * args.pairs
    if differing:
        failures.append("exact values differ: " + ", ".join(differing))
    else:
        print(f"\nexact metrics and reference digest: identical in all "
              f"{runs} runs")
    for failure in failures:
        print(f"perf_pairs: FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
