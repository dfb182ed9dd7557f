#!/usr/bin/env python3
"""Alternating parent/change pairs of one scbench workload.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --rev HEAD~1 --workload sort_batch --pairs 10 --seconds 5

The change is the checkout itself, built by scbench/run.py into its usual
build directory. The base is --rev, checked out as a detached git worktree
under .bench_build/worktrees/<sha> and built there by that revision's own
scbench/run.py. Each pair runs both built scbench programs once, and the
side that runs first alternates from pair to pair, so a drift of the host
over the session lands on both sides alike.

The script prints every pair's change/base ratio for each end-to-end
metric that BENCHMARK.json names, then per metric the median and Q1-Q3 of
each side and the number of pairs the change won (better in the metric's
declared direction). It exits 1 if either side reports a failed op or a
run does not finish, and 0 otherwise; it never judges a gain.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"bench_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args, cwd=ROOT):
    proc = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def base_worktree(rev):
    """A detached worktree of `rev` under .bench_build/worktrees/."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(ROOT, ".bench_build", "worktrees", sha[:12])
    if not os.path.isdir(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        git("worktree", "prune")  # forget trees deleted with .bench_build/
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def build(root, env, workload):
    """Builds `root`'s scbench through its run.py (one 1 s run of the
    workload, which also checks that it runs); returns the binary."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scbench", "run.py"),
         "--workload", workload, "--seconds", "1"],
        cwd=root, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        fail(f"scbench/run.py failed in {root}")
    binary = os.path.join(env.get("CARGO_TARGET_DIR") or
                          os.path.join(root, ".bench_build"), "scbench")
    if not os.path.isabs(binary):
        binary = os.path.join(root, binary)
    if not os.path.isfile(binary):
        fail(f"no scbench program at {binary}")
    return binary


def run(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=4 * seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{binary} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{binary} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(Q1, median, Q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True,
                        help="the base revision (any git rev)")
    parser.add_argument("--workload", default="sort_batch")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sha, tree = base_worktree(args.rev)
    base_env = dict(os.environ,
                    CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    sides = {
        "base": build(tree, base_env, args.workload),
        "change": build(ROOT, dict(os.environ), args.workload),
    }
    print(f"base {sha[:12]} vs change (this checkout), {args.workload}, "
          f"{args.pairs} pairs of {args.seconds} s, seed {args.seed}")

    results = {"base": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            r = run(sides[side], args.workload, args.seed, args.seconds)
            failed += r["failed"]
            results[side].append(r["metrics"])
        ratios = []
        for m in metrics:
            b = results["base"][-1][m["name"]]["value"]
            c = results["change"][-1][m["name"]]["value"]
            ratios.append(f"{m['name']} {c / b if b else float('nan'):.3f}")
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(ratios))

    def cell(q):
        return f"{q[1]:.6g} ({q[0]:.6g}-{q[2]:.6g})"

    print(f"{'metric':16s} {'base median (Q1-Q3)':36s} "
          f"{'change median (Q1-Q3)':36s} ratio  wins")
    for m in metrics:
        name = m["name"]
        base = [r[name]["value"] for r in results["base"]]
        change = [r[name]["value"] for r in results["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        print(f"{name:16s} {cell(bq):36s} {cell(cq):36s} {ratio:.3f}  "
              f"{wins}/{args.pairs}")
    if failed:
        fail(f"{failed} failed ops")


if __name__ == "__main__":
    main()
