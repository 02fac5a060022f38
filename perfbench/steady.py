#!/usr/bin/env python3
"""Steadiness check for perfbench: interleaved runs, quartiles and spreads.

    python3 perfbench/steady.py [--workloads a,b,...] [--runs N] [--sets 1|2]
                                [--seconds S] [--first-seed K] [--trace]

Runs the workloads interleaved (A B C D A B C D ...), each run with its own
seed, and prints for every end-to-end metric its median, quartiles
(statistics.quantiles(values, n=4)), the quartile spread (Q3 - Q1) / median
and the min/max spread (max - min) / median, beside the bound from
BENCHMARK.json. With --sets 2 the two sets are interleaved run by run and
the script also prints how far the second set's median moved from the
first's, which is the check a steady benchmark must pass. With --trace it
also makes one traced run per round and prints the tracing overhead as the
traced minus the untraced wall_s median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s seed %d printed nothing (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print("\n".join(line for line in lines if line.startswith("FAILED")))
        raise SystemExit("%s seed %d failed its checks" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload per set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list; traced[workload] -> wall_s list
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    traced = {w: [] for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                m = run_once(w, seed, args.seconds, False)
                for k, v in m.items():
                    values[s][w].setdefault(k, []).append(v)
                print("run %d set %d %-12s seed %-4d wall_s %.4f" %
                      (i, s, w, seed, m["wall_s"]), flush=True)
                seed += 1
        if args.trace:
            for w in workloads:
                m = run_once(w, seed, args.seconds, True)
                traced[w].append(m["traced.wall_s"])
                seed += 1

    ok = True
    print("\n%-12s %-15s %12s %12s %12s %7s %7s %6s %8s" %
          ("workload", "metric", "median", "q1", "q3", "iqr%", "range%",
           "bound%", "shift%"))
    for w in workloads:
        for k in values[0][w]:
            med, q1, q3, iqr, rng = spread(values[0][w][k])
            bound = bounds.get(k)
            shift = ""
            if args.sets == 2:
                med2 = spread(values[1][w][k])[0]
                worse = ((med2 - med) if lower_better.get(k, True)
                         else (med - med2))
                shift_frac = worse / med if med else 0.0
                shift = "%+.1f" % (100 * shift_frac)
                if bound is not None and shift_frac > bound:
                    ok = False
            if bound is not None and k != "setup_s" and iqr > bound:
                ok = False
            print("%-12s %-15s %12.6g %12.6g %12.6g %7.1f %7.1f %6s %8s" %
                  (w, k, med, q1, q3, 100 * iqr, 100 * rng,
                   "" if bound is None else "%.0f" % (100 * bound), shift))
    if args.trace:
        print("\ntracing overhead (traced - untraced wall_s median):")
        for w in workloads:
            base = statistics.median(values[0][w]["wall_s"])
            t = statistics.median(traced[w])
            print("  %-12s %+.4f s (%+.1f%%)" % (w, t - base,
                                                100 * (t - base) / base))
    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
