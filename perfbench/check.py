#!/usr/bin/env python3
"""Checks the benchmark itself: output-checker self-check, exact counters,
and run-to-run stability of every end-to-end metric.

Run from the root of a checkout:

    python3 perfbench/check.py                      # all three checks
    python3 perfbench/check.py --only stability --runs 10
    python3 perfbench/check.py --only exact --workloads heap

self-check  Each workload runs briefly with --corrupt-expected and must
            report correct=false with failed > 0 and exit 1.
exact       Each workload runs traced twice with the default seed; the
            deterministic counters must be identical.
stability   Each workload runs --runs times, seeds DEFAULT_SEED,
            DEFAULT_SEED+1, ...; for each end-to-end metric the median and
            the interquartile spread (Q3-Q1)/median are printed next to the
            BENCHMARK.json bound. One more run on HELD_OUT_SEED is compared
            against the median.

Exit status 0 when every requested check passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
EXACT = ["vm.steps", "runtime.casts", "coercions.compositions",
         "coercions.nodes_allocated", "runtime.alloc_bytes",
         "runtime.alloc_objects", "runtime.gc_minor", "runtime.gc_major",
         "runtime.promoted_bytes"]


def run(workload, seed, seconds, trace, extra=()):
    """Runs one workload and returns its JSON result. The benchmark exits 1
    after printing a result with correct=false; that result is returned
    too, so the self-check can inspect it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None or (proc.returncode == 1) == result["correct"]:
        sys.exit("check: %s exited %d" % (" ".join(cmd), proc.returncode))
    return result


def self_check(workloads):
    ok = True
    for w in workloads:
        r = run(w, DEFAULT_SEED, 2, 0, ["--corrupt-expected"])
        good = not r["correct"] and r["failed"] > 0
        ok &= good
        print("self-check %-8s corrupted reference -> correct=%s failed=%d: %s"
              % (w, r["correct"], r["failed"], "PASS" if good else "FAIL"))
    return ok


def exact_check(workloads):
    ok = True
    for w in workloads:
        a, b = (run(w, DEFAULT_SEED, 4, 1) for _ in range(2))
        for name in EXACT:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            good = va == vb and a["correct"] and b["correct"]
            ok &= good
            print("exact %-8s %-26s %14.0f %14.0f %s"
                  % (w, name, va, vb, "PASS" if good else "FAIL"))
    return ok


def stability(workloads, runs, seconds, bench):
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        results = [run(w, DEFAULT_SEED + i, seconds, 0) for i in range(runs)]
        held = run(w, HELD_OUT_SEED, seconds, 0)
        ok &= all(r["correct"] and r["failed"] == 0 for r in results + [held])
        print("stability %s: %d runs of %ss, seeds %d..%d, held-out seed %d"
              % (w, runs, seconds, DEFAULT_SEED, DEFAULT_SEED + runs - 1,
                 HELD_OUT_SEED))
        for name in bounds:
            print("  %-18s runs: %s" % (name, " ".join(
                "%.4g" % r["metrics"][name]["value"] for r in results)))
        print("  %-18s %12s %12s %12s %8s %8s %10s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "held-out"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            held_dev = held["metrics"][name]["value"] / med - 1 if med else 0
            good = spread <= bound / 3
            ok &= good
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %8.3f %+9.1f%% %s"
                  % (name, med, q1, q3, spread, bound, 100 * held_dev,
                     "" if good else "SPREAD > BOUND/3"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", choices=["self-check", "exact", "stability"])
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    if args.only in (None, "self-check"):
        ok &= self_check(workloads)
    if args.only in (None, "exact"):
        ok &= exact_check(workloads)
    if args.only in (None, "stability"):
        ok &= stability(workloads, args.runs, seconds, bench)
    print("check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
