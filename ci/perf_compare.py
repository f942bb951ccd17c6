#!/usr/bin/env python3
"""Same-host paired perfbench comparison of a change against its parent.

    python3 ci/perf_compare.py --base origin/main [--pairs 10] [--seconds 10]

Run from the root of a checkout.  The parent side is ``git merge-base <base>
HEAD``, checked out as a temporary git worktree; the change side is the
checkout itself, uncommitted edits included.  Each tree builds perfbench
through its own ``perfbench/run.py`` into its own ``.bench_build``.  For
every workload in BENCHMARK.json the script runs ``--pairs`` pairs on seeds
201, 202, ..., alternating which side runs first, and prints, per
end-to-end metric, each side's median and interquartile range, the change's
wins and losses (ties count for neither) and a verdict:

* better     -- the change won at least nine tenths of the pairs and its
                median beats the parent's by more than the parent's IQR;
* worse      -- the change's median is worse than the parent's by more than
                the metric's BENCHMARK.json bound, and the change lost at
                least nine tenths of the pairs;
* unresolved -- either side's IQR exceeds the bound (relative to its
                median), unless every change run beats every parent run;
                or the medians moved by more than the bound without a
                consistent record of wins;
* equal      -- otherwise, and always when every pair ties (a simulated
                metric spreads across seeds, not across the two sides).

Exit 0 when nothing below applies; exit 1 when a run exits nonzero or prints
``"correct": false``, when the two runs of a pair differ in digest, in any
count, or in a simulated metric (the OWD percentiles and the delivered
fraction, which are a pure function of the seed), or when a verdict is
worse; exit 2 on a build failure or a malformed output line.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

FIRST_SEED = 201
SIMULATED = ("app_owd_p50_ms", "app_owd_p99_ms", "app_delivered_frac")
SIDES = ("parent", "change")


class Abort(Exception):
    """Stops the comparison with an exit code and a message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_run(returncode: int, stdout: str, stderr: str, names: list[str], what: str) -> dict:
    """The run's record and result, from perfbench/run.py's last two stdout
    lines, keeping the metrics in `names`.  A failed build or an unparsable
    line aborts with 2; a run that exits nonzero or reports itself incorrect
    aborts with 1."""
    if "perfbench: build failed" in stderr:
        raise Abort(2, f"{what}: build failed\n{stderr[-2000:]}")
    if returncode != 0:
        raise Abort(1, f"{what}: exited {returncode}\n{stderr[-2000:]}")
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        metrics = {name: float(result["metrics"][name]["value"]) for name in names}
        run = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "digest": record["digest"],
               "counts": record["counts"], "metrics": metrics}
    except (IndexError, KeyError, TypeError, ValueError, AttributeError) as e:
        raise Abort(2, f"{what}: malformed output ({e!r})\n{stdout[-2000:]}") from e
    if run["correct"] is not True:
        raise Abort(1, f"{what}: reported \"correct\": false\n{stderr[-2000:]}")
    return run


def pair_mismatches(parent: dict, change: dict) -> list[str]:
    """What differs between the two runs of one seed, other than host time."""
    out = []
    for key in ("digest", "attempted", "failed"):
        if parent[key] != change[key]:
            out.append(f"{key} {parent[key]} != {change[key]}")
    for name in sorted(set(parent["counts"]) | set(change["counts"])):
        a, b = parent["counts"].get(name), change["counts"].get(name)
        if a != b:
            out.append(f"count {name} {a} != {b}")
    for name in SIMULATED:
        a, b = parent["metrics"][name], change["metrics"][name]
        if a != b:
            out.append(f"{name} {a} != {b}")
    return out


def ratio(x: float, base: float) -> float:
    if base:
        return x / abs(base)
    return math.copysign(math.inf, x) if x else 0.0


def verdict(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row over paired runs: parent[i] and change[i] share a seed."""
    higher = spec["better"] == "higher"
    bound = spec["bound"]

    def gain(a: float, b: float) -> float:
        """How much better b reads than a (positive: better)."""
        return b - a if higher else a - b

    wins = sum(1 for a, b in zip(parent, change) if gain(a, b) > 0)
    losses = sum(1 for a, b in zip(parent, change) if gain(a, b) < 0)
    n = len(parent)
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4, method="inclusive")
    cq1, cmed, cq3 = statistics.quantiles(change, n=4, method="inclusive")
    delta = gain(pmed, cmed)
    rel = ratio(delta, pmed)
    too_wide = max(ratio(pq3 - pq1, pmed), ratio(cq3 - cq1, cmed)) > bound
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if rel < -bound and 10 * losses >= 9 * n:
        v = "worse"
    elif 10 * wins >= 9 * n and delta > pq3 - pq1:
        v = "better"
    elif (wins or losses) and ((too_wide and not all_better) or abs(rel) > bound):
        v = "unresolved"
    else:
        v = "equal"
    return {"parent": (pmed, pq3 - pq1), "change": (cmed, cq3 - cq1), "rel": rel,
            "wins": wins, "losses": losses, "pairs": n, "verdict": v}


def compare(bench: dict, run, pairs: int, seconds: str, out=sys.stdout) -> int:
    """Runs every workload's pairs through `run(side, workload, seed, seconds)`
    (which returns returncode, stdout, stderr), prints the table and returns
    the exit code."""
    try:
        return _compare(bench, run, pairs, seconds, out)
    except Abort as e:
        print(f"ABORT: {e}", file=out)
        return e.code


def _compare(bench: dict, run, pairs: int, seconds: str, out) -> int:
    mismatches = []
    worse = []
    header = (f"{'workload':<16}{'metric':<20}{'parent median [IQR]':>26}"
              f"{'change median [IQR]':>26}{'delta':>9}{'wins':>6}{'losses':>8}  verdict")
    print(header, file=out)
    names = [spec["name"] for spec in bench["end_to_end"]]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(pairs):
            seed = FIRST_SEED + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                what = f"{workload} seed {seed} ({side})"
                pair[side] = parse_run(*run(side, workload, seed, seconds), names, what)
            for m in pair_mismatches(pair["parent"], pair["change"]):
                mismatches.append(f"{workload} seed {seed}: {m}")
            for side in SIDES:
                runs[side].append(pair[side])
        for spec in bench["end_to_end"]:
            name = spec["name"]
            row = verdict(spec, [r["metrics"][name] for r in runs["parent"]],
                          [r["metrics"][name] for r in runs["change"]])
            if row["verdict"] == "worse":
                worse.append(f"{workload} {name}")
            cells = [f"{m:.6g} [{iqr:.3g}]" for m, iqr in (row["parent"], row["change"])]
            print(f"{workload:<16}{name:<20}{cells[0]:>26}{cells[1]:>26}"
                  f"{100 * row['rel']:>+8.1f}%{row['wins']:>6}{row['losses']:>8}"
                  f"  {row['verdict']}", file=out)
    print(f"({pairs} pairs per workload; delta is the change's median against the "
          f"parent's, positive = better)", file=out)
    for line in mismatches:
        print(f"MISMATCH {line}", file=out)
    for line in worse:
        print(f"WORSE {line}", file=out)
    return 1 if mismatches or worse else 0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="ref whose merge-base with HEAD is the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 2 or args.seconds < 1:
        parser.error("--pairs must be at least 2 and --seconds positive")

    sys.stdout.reconfigure(line_buffering=True)
    os.chdir(root)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    try:
        base = git("merge-base", args.base, "HEAD")
        with tempfile.TemporaryDirectory(prefix="perf_compare-") as tmp:
            parent_tree = os.path.join(tmp, "parent")
            git("worktree", "add", "--detach", parent_tree, base)
            trees = {"parent": parent_tree, "change": str(root)}

            def run(side: str, workload: str, seed: int, seconds: str):
                p = subprocess.run(bench["command"] + ["--workload", workload, "--seed",
                                                       str(seed), "--seconds", seconds,
                                                       "--trace", "0"],
                                   cwd=trees[side], env=env, capture_output=True, text=True)
                return p.returncode, p.stdout, p.stderr

            print(f"parent {base[:12]} ({args.base}) vs change "
                  f"{git('rev-parse', 'HEAD')[:12]} plus working-tree edits; "
                  f"{args.seconds} s runs")
            return compare(bench, run, args.pairs, str(args.seconds))
    except subprocess.CalledProcessError as e:
        print(f"ABORT: {' '.join(e.cmd)}: {e.stderr.strip()}", file=sys.stderr)
        return 2
    finally:
        # The temporary directory is gone by now; drop its worktree entry.
        subprocess.run(["git", "worktree", "prune"], capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
