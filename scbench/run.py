#!/usr/bin/env python3
"""Builds and runs the scnet benchmark.

Run from the root of a checkout:

    python3 scbench/run.py --workload sort_batch --seed 1 --seconds 10 --trace 0
    python3 scbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 scbench/run.py --self-test
    python3 scbench/run.py --study counters --seconds 1

The first call configures and builds the library and the scbench program in
.bench_build/ (or $CARGO_TARGET_DIR when set) as a Release build at the
library's default options. Each run prints a table of its metrics, the
host and build facts it ran under, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. The full result,
stamped with those facts, is also written under <build>/results/, and a
traced run writes its spans to <build>/traces/<workload>.json (Chrome
trace-event format; the latest traced run of each workload is kept).
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sort_batch", "sort_single", "count_network", "count_sharded"]


def fail(message):
    print(f"scbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the scbench program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no scnet sources next to {HERE}; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "scbench", "-j", str(nproc())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "scbench")


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_facts():
    cpuinfo = read("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    flags = re.search(r"^flags\s*:\s*(.*)$", cpuinfo, re.M)
    flags = set(flags.group(1).split()) if flags else set()
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read(os.path.join(index, "level"))
        kind = read(os.path.join(index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(os.path.join(index, "size"))
    return {
        "nproc": nproc(),
        "cpu_model": model.group(1) if model else "unknown",
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "numa_nodes": len(glob.glob("/sys/devices/system/node/node[0-9]*")) or 1,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
    }


def build_facts():
    cache = read(os.path.join(build_dir(), "CMakeCache.txt"))
    entries = dict(re.findall(r"^([A-Za-z_]+):[A-Z]+=(.*)$", cache, re.M))
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir(), "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        text = read(path)
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    return {
        "build_type": entries.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": compiler,
        "options": {k: v for k, v in sorted(entries.items()) if k.startswith("SCNET_")},
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    head = read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = read(os.path.join(git, ref))
    if sha:
        return sha
    for line in read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its JSON result."""
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", f"{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=4 * seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def stamp_and_save(result, seed):
    result["host"] = host_facts()
    result["build"] = build_facts()
    result["seed"] = seed
    folder = os.path.join(build_dir(), "results")
    os.makedirs(folder, exist_ok=True)
    name = f"{result['workload']}-seed{seed}-trace{result['trace']}.json"
    with open(os.path.join(folder, name), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    return result


def print_table(result):
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"threads={result['threads']} input_hash={result['input_hash']}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:>18.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':38s} {failed / attempted:>18.6g} failed/attempted "
          f"({failed}/{attempted})")
    for key, value in result["info"].items():
        print(f"  info {key}: {value}")


def self_test(binary, seconds):
    """Same seed: identical input hash and exact counts. Other seed: new
    inputs, same exact counts. Every run must be correct."""
    ok = True
    for workload in WORKLOADS:
        a = run_one(binary, workload, 1, seconds, True)
        b = run_one(binary, workload, 1, seconds, True)
        c = run_one(binary, workload, 2, seconds, True)
        exact = {name: a["metrics"][name]["value"] for name in a["exact"]}
        checks = {
            "correct": all(r["failed"] == 0 for r in (a, b, c)),
            "same seed, same inputs": a["input_hash"] == b["input_hash"],
            "other seed, other inputs": a["input_hash"] != c["input_hash"],
            "same seed, same exact counts":
                exact == {n: b["metrics"][n]["value"] for n in b["exact"]},
            "other seed, same exact counts":
                exact == {n: c["metrics"][n]["value"] for n in c["exact"]},
        }
        for name, passed in checks.items():
            print(f"{workload:14s} {name:30s} {'PASS' if passed else 'FAIL'}")
            ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--study", choices=["counters"],
                        help="print the counter table NOTES.md quotes")
    args = parser.parse_args()
    if not (args.self_test or args.study) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.study:
        sys.exit(subprocess.run([binary, "--study", args.study,
                                 "--seconds", str(args.seconds)]).returncode)
    if args.self_test:
        sys.exit(0 if self_test(binary, min(args.seconds, 2)) else 1)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        result = stamp_and_save(
            run_one(binary, workload, args.seed, args.seconds, args.trace == 1), args.seed)
        print_table(result)
        results.append(result)
    print("host: " + json.dumps(results[0]["host"], sort_keys=True))
    print("build: " + json.dumps(results[0]["build"], sort_keys=True))

    def key(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key(r, n): m for r in results for n, m in r["metrics"].items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
