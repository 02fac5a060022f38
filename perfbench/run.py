#!/usr/bin/env python3
"""Benchmark of the Gemini chiplet-DSE stack: one command, four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a source checkout. The first run builds the library,
the `gemini` CLI and the in-process workload runner (perfbench/work.cc)
with CMake into .bench_build/ (or $CARGO_TARGET_DIR). Workloads:

  dse_paper72  one scheduled DSE over the paper's 72-TOPS space (2 threads)
  map_g72      map mode, transformer + resnet50 on g_arch_72 (1 thread)
  sa_walk157   the 157-layer-group SA walk via MappingEngine::runFrom
  serve_mix    `gemini serve` driven by two closed-loop HTTP clients

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics with --trace 1).
Lines before it print the host/build stamp and a metric table. Every run
checks its outputs (goldens at the default seed, invariants at any seed)
and exits non-zero if any check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
WORKLOADS = ("dse_paper72", "map_g72", "sa_walk157", "serve_mix")
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
    "sa_iters_per_s": "1/s", "fresh_p50_s": "s", "fresh_p90_s": "s",
    "hit_p50_s": "s",
}

# Per-layer metrics. A workload that does not reach a layer reports 0 for
# it (no work was done there); README.md lists which workload feeds which.
LAYER_UNITS = {
    "dse.screen_s": "s", "dse.race_s": "s", "dse.polish_s": "s",
    "dse.screen_wasted_frac": "ratio", "dse.pool_busy_frac": "ratio",
    "dse.ledger_cpu_s": "s",
    "mapping.partition_s": "s", "mapping.partition_calls": "count",
    "cost.bound_s": "s", "cost.bound_calls": "count",
    "dnn.build_s": "s",
    "mapping.sa_s": "s", "mapping.sa_iters": "count",
    "mapping.sa_accept_frac": "ratio",
    "mapping.sa_inapplicable_frac": "ratio",
    "mapping.eval_group_cold_us": "us", "mapping.eval_group_warm_us": "us",
    "mapping.tile_hit_frac": "ratio", "mapping.flow_hit_frac": "ratio",
    "mapping.eval_hit_frac": "ratio", "mapping.delta_apply_frac": "ratio",
    "mapping.group_layers_max": "count", "mapping.alloc_events": "count",
    "net.submit_s": "s", "api.queue_wait_p50_s": "s",
    "api.queue_wait_p90_s": "s", "api.run_s": "s", "net.result_s": "s",
    "net.result_bytes": "bytes", "api.hit_submit_s": "s",
    "store.put_s": "s", "store.get_s": "s", "api.hit_frac": "ratio",
    "api.jobs_failed": "count",
    "traced.wall_s": "s",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (build or harness failure)."""


# --------------------------------------------------------------------------
# Build and host/build stamp.

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return {"work": os.path.join(bdir, "perfbench_work"),
            "gemini": os.path.join(bdir, "core", "gemini")}


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp(simd_level):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "simd_level": simd_level, "build_type": build_type,
            "commit": commit, "source_digest": source_digest()}


# --------------------------------------------------------------------------
# In-process workloads (perfbench_work).

def run_work(binary, args):
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (binary, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_process(bins, workload, seed, seconds, trace, smoke, out_dir):
    work = os.path.join(out_dir, "%s_%d" % (workload, os.getpid()))
    args = [workload, "--seed", str(seed), "--seconds", str(seconds),
            "--dir", work]
    if smoke:
        args.append("--smoke")
    if trace:
        args += ["--trace", os.path.join(
            out_dir, "trace_%s_%d.json" % (workload, seed))]
    try:
        out = run_work(bins["work"], args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        out["metrics"]["traced.wall_s"] = out["metrics"]["wall_s"]
    return out


# --------------------------------------------------------------------------
# serve_mix: the daemon over loopback HTTP.

SERVE_SETUP_REPS = 9
POLL_S = 0.0002  # start-up polling interval
SERVE_SUBMISSIONS_PER_CLIENT = 52  # every 4th repeats: 39 fresh, 13 hits
TIMING_KEYS = {"eval_seconds", "cpu_seconds", "from_cache"}


def serve_spec(sa_seed, smoke):
    return {
        "schema_version": 1, "name": "perfbench-serve", "mode": "dse",
        "models": [{"zoo": "tiny_transformer"}],
        "schedule": {"enabled": True, "rungs": 2},
        "max_candidates": 4 if smoke else 8, "threads": 1,
        "mapping": {"sa": {"iterations": 64 if smoke else 256,
                           "seed": sa_seed}},
    }


def job_lists(seed, smoke):
    """Per client: a list of (spec, is_repeat). Every fourth submission
    repeats one of the same client's earlier fresh specs."""
    rng = random.Random(seed)
    per_client = 8 if smoke else SERVE_SUBMISSIONS_PER_CLIENT
    used = set()
    lists = []
    for _ in range(2):
        jobs, fresh = [], []
        for i in range(per_client):
            if i % 4 == 3:
                jobs.append((rng.choice(fresh), True))
                continue
            sa_seed = rng.randrange(1, 1 << 53)
            while sa_seed in used:
                sa_seed = rng.randrange(1, 1 << 53)
            used.add(sa_seed)
            spec = serve_spec(sa_seed, smoke)
            fresh.append(spec)
            jobs.append((spec, False))
        lists.append(jobs)
    return lists


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


class Daemon:
    """A `gemini serve` child with its own store directory."""

    def __init__(self, gemini, work_dir):
        self.dir = work_dir
        os.makedirs(work_dir)
        port_file = os.path.join(work_dir, "port")
        self.log = open(os.path.join(work_dir, "serve.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [gemini, "serve", "--store", os.path.join(work_dir, "store"),
             "--port", "0", "--bind", "127.0.0.1", "--port-file", port_file,
             "--jobs", "2", "--service-threads", "2"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.log)
        self.rusage = None
        try:
            self.port = self._wait_port(port_file, t0)
            self._wait_healthy(t0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_port(self, port_file, t0):
        while time.perf_counter() - t0 < 30:
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    return int(text)
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError("gemini serve exited during start-up")
            time.sleep(POLL_S)
        raise BenchError("gemini serve never wrote its port")

    def _wait_healthy(self, t0):
        while time.perf_counter() - t0 < 30:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(POLL_S)
        raise BenchError("gemini serve never became healthy")

    def stop(self):
        """SIGTERM, reap, and keep the child's OS rusage."""
        if self.rusage is None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        if self.rusage is None:
            try:
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            except ChildProcessError:
                self.proc.wait()
            self.log.close()
        return self.rusage


def client_loop(port, tenant, jobs, results):
    """One closed-loop client on one keep-alive connection: POST, follow
    the event stream to its terminal line, GET the result; then the next."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for spec, repeat in jobs:
            rec = {"tenant": tenant, "repeat": repeat, "spec": spec,
                   "ok": False}
            results.append(rec)
            body = json.dumps({"spec": spec, "tenant": tenant})
            t0 = time.perf_counter()
            conn.request("POST", "/v1/jobs", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            info = json.loads(resp.read())
            t1 = time.perf_counter()
            rec["admitted_done"] = (resp.status == 200 and
                                    info.get("state") == "done")
            if resp.status not in (200, 202):
                rec["error"] = "submit status %d" % resp.status
                continue
            job_id = info["id"]
            conn.request("GET", "/v1/jobs/%s/events" % job_id)
            resp = conn.getresponse()
            first_event = None
            final = None
            for line in resp:
                if first_event is None:
                    first_event = time.perf_counter()
                event = json.loads(line)
                if event.get("done"):
                    final = event
            t3 = time.perf_counter()
            conn.request("GET", "/v1/jobs/%s/result" % job_id)
            resp = conn.getresponse()
            payload = resp.read()
            t4 = time.perf_counter()
            if final is None or final.get("state") != "done":
                rec["error"] = "job ended %s" % (final or {}).get("state")
                continue
            if resp.status != 200:
                rec["error"] = "result status %d" % resp.status
                continue
            rec.update(ok=True, id=job_id, latency=t4 - t0, submit=t1 - t0,
                       queue_wait=(first_event or t3) - t1,
                       run=t3 - (first_event or t3), result_s=t4 - t3,
                       result_bytes=len(payload),
                       result=json.loads(payload), t0=t0, t4=t4)
    except (OSError, http.client.HTTPException, ValueError) as e:
        results.append({"tenant": tenant, "ok": False, "error": str(e)})
    finally:
        conn.close()


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear interpolation between order statistics (as perfbench_work)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def serve_round(gemini, work_dir, lists):
    """One daemon, one pass over the job lists; returns the jobs, the
    daemon's set-up time and OS rusage, and the list's wall time."""
    daemon = Daemon(gemini, work_dir)
    try:
        results = [[], []]
        threads = [threading.Thread(
            target=client_loop,
            args=(daemon.port, "tenant%d" % i, lists[i], results[i]))
            for i in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
    finally:
        ru = daemon.stop()
    for j in results[0] + results[1]:
        if j.get("ok"):
            j["t0"] -= t0
            j["t4"] -= t0
    return {"jobs": results[0] + results[1], "wall": wall, "rusage": ru,
            "setup": daemon.setup_s, "exit": daemon.proc.returncode}


def serve_mix(bins, seed, seconds, trace, smoke, out_dir):
    """Rounds of the fixed job lists, each on a fresh daemon and store,
    until `seconds` have passed; medians over rounds."""
    work = os.path.join(out_dir, "serve_%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures = []
    try:
        setups = []
        for k in range(1 if smoke else SERVE_SETUP_REPS):
            d = Daemon(bins["gemini"], os.path.join(work, "setup%d" % k))
            setups.append(d.setup_s)
            d.stop()
        lists = job_lists(seed, smoke)
        rounds = []
        t_start = time.perf_counter()
        while True:
            rounds.append(serve_round(
                bins["gemini"], os.path.join(work, "round%d" % len(rounds)),
                lists))
            setups.append(rounds[-1]["setup"])
            if smoke or time.perf_counter() - t_start >= seconds:
                break

        jobs = [j for r in rounds for j in r["jobs"]]
        ok = [j for j in jobs if j["ok"]]
        fresh = [j for j in ok if not j["repeat"]]
        hits = [j for j in ok if j["repeat"]]
        for r in rounds:
            if r["exit"] != 0:
                failures.append("gemini serve exited with %d" % r["exit"])
        for j in jobs:
            if not j["ok"]:
                failures.append("%s job failed: %s" %
                                (j["tenant"], j.get("error")))
        # Every repeat (and every later round) must reproduce the spec's
        # first run, timing fields aside.
        first_of = {}
        for j in ok:
            key = json.dumps(j["spec"], sort_keys=True)
            got = strip_timing(j["result"]["dse"])
            if key not in first_of:
                first_of[key] = got
            elif first_of[key] != got:
                failures.append("job %s differs from its spec's first run" %
                                j["id"])
        for j in fresh:
            failures += check_serve_result(j["result"])

        def round_rate(r):
            iters = sum(rec.get("sa_iters", 0) for j in r["jobs"]
                        if j["ok"] and not j["repeat"]
                        for rec in j["result"]["dse"].get("records", []))
            return iters / r["wall"]

        metrics = {
            "setup_s": median(setups),
            "wall_s": median([r["wall"] for r in rounds]),
            "cpu_s": median([r["rusage"].ru_utime + r["rusage"].ru_stime
                             for r in rounds]),
            "peak_rss_mib": median([r["rusage"].ru_maxrss / 1024.0
                                    for r in rounds]),
            "sa_iters_per_s": median([round_rate(r) for r in rounds]),
            "fresh_p50_s": median([j["latency"] for j in fresh]),
            "fresh_p90_s": quantile([j["latency"] for j in fresh], 0.9),
            "hit_p50_s": median([j["latency"] for j in hits]),
        }
        if trace:
            repeats = [j for j in jobs if j.get("repeat")]
            metrics.update({
                "net.submit_s": median([j["submit"] for j in fresh]),
                "api.queue_wait_p50_s": median(
                    [j["queue_wait"] for j in fresh]),
                "api.queue_wait_p90_s": quantile(
                    [j["queue_wait"] for j in fresh], 0.9),
                "api.run_s": median([j["run"] for j in fresh]),
                "net.result_s": median([j["result_s"] for j in fresh]),
                "net.result_bytes": median(
                    [j["result_bytes"] for j in fresh]),
                "api.hit_submit_s": median([j["submit"] for j in hits]),
                "api.hit_frac": (sum(1 for j in repeats
                                     if j.get("admitted_done")) /
                                 max(1, len(repeats))),
                "api.jobs_failed": len(jobs) - len(ok),
                "traced.wall_s": metrics["wall_s"],
            })
            write_serve_trace(rounds, os.path.join(
                out_dir, "trace_serve_mix_%d.json" % seed))
            if fresh:
                metrics.update(store_probe(bins, fresh[0]["result"], work,
                                           failures))
        return {"metrics": metrics, "failures": failures,
                "attempted": len(jobs), "golden": {},
                "samples": {"rounds": len(rounds), "fresh": len(fresh),
                            "hits": len(hits), "setups": len(setups)},
                "simd_level": run_work(bins["work"], ["stamp"])["simd_level"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_serve_result(result):
    """Invariants of one DSE result: a winner, and the screen bound never
    above an achieved objective."""
    dse = result.get("dse", {})
    out = []
    if dse.get("best_index", -1) < 0:
        out.append("serve job without a winner")
    for rec in dse.get("records", []):
        obj, bound = rec.get("objective"), rec.get("objective_lower_bound")
        if (rec.get("feasible") and not rec.get("pruned_by_bound") and
                isinstance(obj, (int, float)) and
                isinstance(bound, (int, float)) and bound > obj):
            out.append("screen bound %r above objective %r" % (bound, obj))
    return out


def store_probe(bins, result, work, failures):
    path = os.path.join(work, "probe_result.json")
    with open(path, "w") as f:
        json.dump(result, f)
    out = run_work(bins["work"], ["store_probe", "--result", path, "--dir",
                                  os.path.join(work, "probe_store")])
    failures += out["failures"]
    return {k: out["metrics"][k] for k in ("store.put_s", "store.get_s")}


def write_serve_trace(rounds, path):
    """Spans per job (times relative to the round's start): the job, then
    submit, queue wait, run and result fetch as its children."""
    spans = []
    for k, r in enumerate(rounds):
        for n, j in enumerate(r["jobs"]):
            if not j.get("ok"):
                continue
            job = "%d.%d" % (k, n)
            root = len(spans)
            spans.append({"name": "serve.job", "start": j["t0"],
                          "end": j["t4"], "parent": -1, "job": job})
            cursor = j["t0"]
            for name, key in (("net.submit", "submit"),
                              ("api.queue_wait", "queue_wait"),
                              ("api.run", "run"),
                              ("net.result", "result_s")):
                spans.append({"name": name, "start": cursor,
                              "end": cursor + j[key], "parent": root,
                              "job": job})
                cursor += j[key]
    with open(path, "w") as f:
        json.dump(spans, f)


# --------------------------------------------------------------------------

def check_goldens(workload, golden, failures):
    """Compare the workload's goldens; returns how many were checked."""
    with open(os.path.join(HERE, "goldens.json")) as f:
        expected = {k: v for k, v in json.load(f).items()
                    if k.startswith(workload + ".")}
    for key, value in expected.items():
        if golden.get(key) != value:
            failures.append("golden %s: got %s, expected %s" %
                            (key, golden.get(key), value))
    return len(expected)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one repetition (the benchmark's own "
                         "tests); goldens are not checked")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        bins = build()
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        if args.workload == "serve_mix":
            out = serve_mix(bins, args.seed, args.seconds, args.trace,
                            args.smoke, out_dir)
        else:
            out = in_process(bins, args.workload, args.seed, args.seconds,
                             args.trace, args.smoke, out_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    failures = list(out["failures"])
    attempted = int(out["attempted"])
    if args.seed == DEFAULT_SEED and not args.smoke:
        attempted += check_goldens(args.workload, out["golden"], failures)
    wanted = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": float(out["metrics"].get(name, 0.0)),
                      "unit": unit} for name, unit in wanted.items()}

    stamp = host_stamp(out.get("simd_level", "unknown"))
    stamp.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 smoke=args.smoke)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("samples " + json.dumps(out.get("samples", {}), sort_keys=True))
    for name, m in metrics.items():
        print("%-30s %14.6g %s" % (name, m["value"], m["unit"]))
    for f in failures:
        print("FAILED: " + f)
    attempted = max(attempted, len(failures))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
