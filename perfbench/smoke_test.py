#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, both modes.

    python3 perfbench/smoke_test.py

For each workload it runs `run.py --smoke` untraced and traced. It checks
that the result line is well formed, that every metric named in
BENCHMARK.json is reported with its unit, that the end-to-end values are
positive, and that the traced run shows the paths each workload is meant
to take. It then checks that run.py fails without printing a result in a
directory that holds only BENCHMARK.json and perfbench/. Exits non-zero on
the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(cond, what):
    if not cond:
        raise SystemExit("FAIL: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(ROOT, w, trace)
            expect(code == 0 and lines, "%s trace %d exited %d" %
                   (w, trace, code))
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], "%s result keys" % w)
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, "%s checks" % w)
            metrics = result["metrics"]
            for m in bench[section]:
                expect(metrics.get(m["name"], {}).get("unit") == m["unit"],
                       "%s trace %d: %s missing or wrong unit" %
                       (w, trace, m["name"]))
                if trace == 0:
                    expect(metrics[m["name"]]["value"] > 0,
                           "%s: %s is not positive" % (w, m["name"]))
            if trace == 1:
                v = {k: m["value"] for k, m in metrics.items()}
                if w == "sa_walk157":
                    expect(v["mapping.group_layers_max"] == 157,
                           "sa_walk157 groups are not 157 layers")
                    expect(v["mapping.delta_apply_frac"] > 0.5,
                           "sa_walk157 is not on the delta path")
                if w == "map_g72":
                    expect(v["mapping.delta_apply_frac"] < 0.01,
                           "map_g72 is not on the full-merge path")
                if w == "dse_paper72":
                    expect(v["dse.screen_s"] > 0 and
                           v["cost.bound_calls"] > 0, "dse rungs missing")
                if w == "serve_mix":
                    expect(v["api.hit_frac"] == 1.0,
                           "serve_mix repeats not answered at admission")
            print("ok  %-12s trace %d" % (w, trace), flush=True)

    # Without the repository's sources there is nothing to build.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             bench["workloads"][0]["name"], "--seed", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180, env=env)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "run.py did not fail in a bare directory")
        print("ok  bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("all smoke tests passed")


if __name__ == "__main__":
    main()
