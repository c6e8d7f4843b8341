#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the P2G runtime.

Builds the project's libraries, p2gnode, p2gtrace and the perfbench binary
(a Release build in .bench_build/ at the checkout root), runs one workload
in its own process and prints its metrics. The last line of standard
output is the JSON result object.

  python3 perfbench/run.py --workload mjpeg --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload kmeans --steady 10

--trace 1 prints the per-layer metrics instead of the end-to-end ones,
writes the benchmark's spans to .bench_build/trace_<workload>.json and
checks that `p2gtrace --summary` reads them. --steady N runs N back-to-back
runs with seeds seed..seed+N-1 and prints each metric's median, quartiles
and spread next to its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mjpeg", "kmeans", "mjpeg_live", "cluster3")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "p2gnode", "p2gtrace"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as error:
            sys.exit("perfbench: cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def run_once(workload, seed, seconds, trace):
    """Runs the perfbench binary once; returns (info lines, result)."""
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--node-binary", os.path.join(BUILD, "p2gnode")]
    trace_path = os.path.join(BUILD, "trace_%s.json" % workload)
    if trace:
        command += ["--trace-path", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: binary exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    check_names(result, trace)
    info = lines[:-1]
    if trace:
        summary = subprocess.run(
            [os.path.join(BUILD, "p2gtrace"), "--summary", trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT,
            text=True, timeout=60, check=False)
        text = summary.stdout.strip()
        if summary.returncode != 0 or " 0 span(s)" in text:
            sys.exit("perfbench: p2gtrace cannot read the trace: " + text)
        info.append("# p2gtrace: " + text)
    return info, result


def load_spec():
    """BENCHMARK.json at the checkout root."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit("perfbench: cannot read BENCHMARK.json: %s" % error)


def check_names(result, trace):
    """Exits unless the run printed exactly the metrics BENCHMARK.json lists."""
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"] for m in load_spec()[kind]}
    got = set(result["metrics"])
    if got != want:
        sys.exit("perfbench: %s metrics differ from BENCHMARK.json: "
                 "missing %s, unexpected %s" %
                 (kind, sorted(want - got), sorted(got - want)))


def steady(workload, first_seed, runs, seconds, trace):
    """Back-to-back runs; prints median, quartiles and spread per metric."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    units = {}
    shares = set()
    for seed in range(first_seed, first_seed + runs):
        _, result = run_once(workload, seed, seconds, trace)
        shares.add(result["failed"] / result["attempted"])
        if not result["correct"]:
            print("# seed %d: outputs were not correct" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("# seed %d: %s" % (seed, json.dumps(
            {n: m["value"] for n, m in result["metrics"].items()})))
    print("%-36s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    summary = {}
    for name in sorted(values):
        series = values[name]
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-36s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound,
            units[name]))
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound}
    print("# failed share over runs: %s" % sorted(shares))
    print(json.dumps({"workload": workload, "runs": runs, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="N back-to-back runs and their spread")
    args = parser.parse_args()

    build()
    if args.steady:
        steady(args.workload, args.seed, args.steady, args.seconds,
               bool(args.trace))
        return
    info, result = run_once(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in info:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
