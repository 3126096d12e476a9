#!/usr/bin/env python3
"""Build and run the host-time benchmark of the UTLB simulator.

Run from the root of the repository:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--trace-out FILE]
      Builds perfbench/perf.exe and layers.exe with dune and runs one
      workload in one child process. Its output is passed through; the last line of
      stdout is the JSON result.

  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
                           [--runs R] [--out FILE]
      Runs every workload of BENCHMARK.json, one child process at a
      time, R rounds with seeds N, N+1, ...; prints each metric's median
      and quartiles across runs. --out writes every run's result as JSON.

  python3 perfbench/run.py --compare A.json B.json
      For each workload's failed_frac and end-to-end metrics, reports B
      against A as better, worse, unchanged or unresolved (see
      README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perf.exe")
CHILD_TIMEOUT_S = 175


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perf.exe",
             "./perfbench/layers.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def child_args(workload, seed, seconds, trace, trace_out=None):
    args = [EXE, "--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    return args


def run_one(args):
    """Run one workload with its output passed through; return its exit code."""
    with subprocess.Popen(args) as child:
        try:
            return child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit(f"perfbench: {' '.join(args)} ran over {CHILD_TIMEOUT_S} s")


def run_captured(args):
    """Run one workload and return its JSON result (its last stdout line)."""
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {' '.join(args)} ran over {CHILD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(p25, median, p75), as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[1], q[2])


def metric_values(runs):
    """{metric: (unit, [value per run])} over a workload's runs."""
    table = {}
    for run in runs:
        for name, m in run["metrics"].items():
            table.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return table


def failed_frac(runs):
    """Failed ops / attempted ops over a workload's runs."""
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def print_table(results):
    print(f"{'workload':<16} {'metric':<22} {'median':>13} {'p25':>13} "
          f"{'p75':>13} {'IQR/med':>8} {'n':>3}  unit")
    for workload, runs in results["workloads"].items():
        for name, (unit, values) in metric_values(runs).items():
            p25, med, p75 = quartiles(values)
            spread = (p75 - p25) / abs(med) if med else float("nan")
            print(f"{workload:<16} {name:<22} {med:>13.6g} {p25:>13.6g} "
                  f"{p75:>13.6g} {spread:>8.2%} {len(values):>3}  {unit}")
        print(f"{workload:<16} {'failed_frac':<22} {failed_frac(runs):>13.6g} "
              f"{'':>13} {'':>13} {'':>8} {len(runs):>3}  ops/ops")
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload:<16} {len(bad)} run(s) INCORRECT or with failed ops")


def run_all(opts, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    results = {"schema": 1, "seconds": opts.seconds, "trace": opts.trace,
               "seeds": [], "workloads": {w: [] for w in workloads}}
    for i in range(opts.runs):
        seed = None if opts.seed is None else opts.seed + i
        results["seeds"].append(seed)
        for workload in workloads:
            result = run_captured(child_args(workload, seed, opts.seconds, opts.trace))
            results["workloads"][workload].append(result)
            print(f"run {i + 1}/{opts.runs} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)
    return results


def classify(parent, change, better, bound):
    """One (workload, metric) verdict, following the benchmark's rules:
    worse when the median is worse than the parent's by more than the
    bound; better when at least 9 in 10 seed-paired runs are better and
    the medians differ by more than the parent's quartile spread;
    unresolved when the parent's own spread exceeds the bound, unless
    every run of the change beats every run of the parent."""
    if len(parent) < 3 or len(change) < 3:
        return "unresolved"
    p25, pmed, p75 = quartiles(parent)
    cmed = quartiles(change)[1]
    if pmed == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (cmed - pmed) / abs(pmed)
    spread = (p75 - p25) / abs(pmed)
    if spread > bound:
        if all(sign * c > sign * p for c in change for p in parent):
            return "better"
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c > sign * p)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    return "unchanged"


def save_results(results, path):
    with open(path, "w") as f:
        json.dump(results, f, indent=1)


def classify_failures(parent, change):
    """The failed_frac verdict: worse when the change fails a larger share
    of its ops than the parent, or has an incorrect run where the parent
    has none."""
    if (failed_frac(change) > failed_frac(parent)
            or (any(not r["correct"] for r in change)
                and all(r["correct"] for r in parent))):
        return "worse"
    if failed_frac(change) < failed_frac(parent):
        return "better"
    return "unchanged"


def compare(path_a, path_b, bench):
    """[(workload, metric, verdict)]: failed_frac, then each end-to-end
    metric. A gain does not count when more ops fail, so every metric of
    a workload whose failed_frac is worse is worse too."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    verdicts = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        failures = classify_failures(ra, rb)
        verdicts.append((workload, "failed_frac", failures))
        va, vb = metric_values(ra), metric_values(rb)
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in va or name not in vb:
                continue
            verdict = "worse" if failures == "worse" else classify(
                va[name][1], vb[name][1], m["better"], m["bound"])
            verdicts.append((workload, name, verdict))
    return verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    opts = parser.parse_args()

    bench = load_benchmark()
    if opts.seconds is None:
        opts.seconds = bench["run_seconds"]
    if opts.compare:
        for workload, name, verdict in compare(*opts.compare, bench):
            print(f"{workload:<16} {name:<22} {verdict}")
        return 0
    build()
    if opts.workload:
        return run_one(child_args(opts.workload, opts.seed, opts.seconds,
                                  opts.trace, opts.trace_out))
    results = run_all(opts, bench)
    print_table(results)
    if opts.out:
        save_results(results, opts.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
