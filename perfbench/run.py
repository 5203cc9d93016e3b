#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works on the checkout that holds it.  The first run builds qpf_ler,
qpf_serve and the benchmark's own program qpf_perfbench from the sources
into .bench_build/perfbench.  Workloads (see README.md in this directory):

  ler_sparse     qpf_ler, one LER point at p=3e-4, Pauli frame, jobs=1
  ler_grid       qpf_ler, 12 durable points (p x basis x frame), jobs=nproc
  serve_tenants  qpf_serve, closed-loop tenants from one process

With --trace 0 the shipped entry points are measured end to end; with
--trace 1 the traced suite (qpf_perfbench) gives the per-layer metrics.
Either way the outputs are checked, every metric is printed by name with
unit and sample count, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
QPF_LER = os.path.join(BUILD, "qpf", "tools", "qpf_ler")
QPF_SERVE = os.path.join(BUILD, "qpf", "tools", "qpf_serve")
PERFBENCH = os.path.join(BUILD, "qpf_perfbench")

NPROC = len(os.sched_getaffinity(0))
ALPHA = 1e-6            # strict significance level of the statistical checks
SLOTS_CEILING = 0.0588  # Eq 5.12 ceiling on the saved time-slot fraction

SPARSE_POINT = ("3e-4", "z", 1)
SPARSE_RUNS, SPARSE_WINDOWS = 2, 1500
GRID_POINTS = [(p, b, f) for p in ("1e-3", "5e-3", "1e-2")
               for b in ("x", "z") for f in (0, 1)]
GRID_RUNS, GRID_WINDOWS = 8, 500
GRID_JOBS = min(NPROC, GRID_RUNS)
# The statistical checks read a fixed number of leading invocations per
# point, so their power and their outcome depend on the seed alone, not on
# how many windows the host completes in a run.
SPARSE_CHECKED, GRID_CHECKED = 80, 8
TENANTS = min(4, NPROC)
SETUP_REPEATS = 40     # set-up is a few ms; its median needs many samples


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


# --- build -----------------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "a") as log:
            steps = []
            if not os.path.exists(cache):
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"] + generator)
            steps.append(["cmake", "--build", BUILD, "-j", str(NPROC),
                          "--target", "qpf_ler", "qpf_serve", "qpf_perfbench"])
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=log,
                                   stdin=subprocess.DEVNULL) != 0:
                    with open(log_path) as text:
                        sys.stderr.write("".join(text.readlines()[-30:]))
                    if step[1] == "-S" and os.path.exists(cache):
                        os.remove(cache)
                    fail("build failed: " + " ".join(step))


# --- processes -------------------------------------------------------------

class Run:
    def __init__(self, wall, out, code, rss_kb):
        self.wall, self.out, self.code, self.rss_kb = wall, out, code, rss_kb


def run_tool(args, errlog, timeout=120):
    """Run to completion; wall time ends when the process has exited."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=errlog,
                            stdin=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, out.decode(errors="replace"), proc.returncode,
               usage.ru_maxrss)


class Server:
    """A qpf_serve process on an ephemeral port, stopped on leaving `with`."""

    def __init__(self, errlog):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([QPF_SERVE, "--port=0"],
                                     stdout=subprocess.PIPE, stderr=errlog,
                                     stdin=subprocess.DEVNULL)
        self.timer = threading.Timer(170, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        line = self.proc.stdout.readline().decode()
        self.listening = time.perf_counter() - self.start
        if not line.startswith("listening on port "):
            self.stop()
            fail("qpf_serve did not start")
        self.port = int(line.split()[-1])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.stop()

    def stop(self):
        """SIGTERM drain; returns (exit code, peak RSS in KiB)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss


def perfbench(args, errlog, timeout=170):
    run = run_tool([PERFBENCH] + args, errlog, timeout)
    if run.code != 0 or not run.out.strip():
        fail("qpf_perfbench %s failed (exit %d)" % (args[0], run.code))
    return json.loads(run.out.strip().splitlines()[-1])


# --- seeds and statistics --------------------------------------------------

MASK = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def derive(seed, stream, index):
    return splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ index)


def quantile(values, q):
    """Nearest-rank quantile, as qpf_perfbench computes it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def log_pmf(k, n, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_p_value(k, n, p):
    """Two-sided exact binomial test: twice the tail beyond k, capped at 1."""
    step = 1 if k >= n * p else -1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(log_pmf(j, n, p))
        total += term
        if term == 0.0 or term < 1e-18 * total:
            break
        j += step
    return min(1.0, 2.0 * total)


def two_proportion_p_value(k1, n1, k2, n2):
    if n1 == 0 or n2 == 0:
        return 1.0
    pooled = (k1 + k2) / (n1 + n2)
    spread = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    if spread == 0:
        return 1.0
    z = (k1 / n1 - k2 / n2) / spread
    return math.erfc(abs(z) / math.sqrt(2))


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        points = json.load(handle)["points"]
    return {(p["per"], p["basis"], p["frame"]): p for p in points}


# --- output ----------------------------------------------------------------

class Result:
    def __init__(self, workload, seed, seconds, trace):
        self.lines = ["perfbench workload=%s seed=%d seconds=%g trace=%d "
                      "nproc=%d" % (workload, seed, seconds, trace, NPROC)]
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def metric(self, name, value, unit, samples, label=None):
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append("  %-40s %16.6g %-12s n=%s" % (label or name, value,
                                                        unit, samples))

    def note(self, text):
        self.lines.append("  " + text)

    def check(self, name, ok, detail=""):
        self.checks.append(ok)
        self.lines.append("  check %-38s %s %s"
                          % (name, "PASS" if ok else "FAIL", detail))

    def emit(self):
        correct = self.failed == 0 and all(self.checks)
        frac = self.failed / self.attempted if self.attempted else 1.0
        self.lines.append("  %-40s %16.6g %-12s failed=%d attempted=%d"
                          % ("fail_frac", frac, "ratio", self.failed,
                             self.attempted))
        print("\n".join(self.lines))
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": self.metrics}))
        sys.stdout.flush()


# --- LER workloads ---------------------------------------------------------

def ler_args(point, runs, windows, seed, jobs, state_dir=None):
    per, basis, frame = point
    args = [QPF_LER, "--per=" + per, "--basis=" + basis, "--runs=%d" % runs,
            "--errors=%d" % (windows + 1), "--max-windows=%d" % windows,
            "--seed=%d" % seed, "--jobs=%d" % jobs]
    if frame:
        args.append("--pauli-frame")
    if state_dir:
        args.append("--state-dir=" + state_dir)
    return args


def parse_ler(out):
    fields = out.strip().splitlines()[-1].split() if out.strip() else []
    return dict(item.split("=", 1) for item in fields if "=" in item)


def read_journal(state_dir):
    with open(os.path.join(state_dir, "journal.jsonl")) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class PointTally:
    def __init__(self):
        self.invocations = 0
        self.windows = 0   # of the checked invocations
        self.errors = 0    # of the checked invocations
        self.trials = 0
        self.failed = 0


def check_statistics(result, tallies, reference):
    """Binomial test per point, PF-on vs PF-off test per (p, basis)."""
    for point, tally in tallies.items():
        ref = reference[point]
        p0 = ref["logical_errors"] / ref["windows"]
        p_value = binomial_p_value(tally.errors, tally.windows, p0)
        if p_value < ALPHA:
            tally.failed = tally.trials
        result.check("ler %s:%s:%d vs reference" % point, p_value >= ALPHA,
                     "errors=%d windows=%d ler=%.4g ref=%.4g p=%.2g"
                     % (tally.errors, tally.windows,
                        tally.errors / max(1, tally.windows), p0, p_value))
    for (per, basis, frame), on in tallies.items():
        off = tallies.get((per, basis, 0))
        if frame != 1 or off is None:
            continue
        p_value = two_proportion_p_value(on.errors, on.windows, off.errors,
                                         off.windows)
        if p_value < ALPHA:
            on.failed = on.trials
            off.failed = off.trials
        result.check("pf-on vs pf-off %s:%s" % (per, basis), p_value >= ALPHA,
                     "p=%.2g" % p_value)


def run_ler_workload(result, seed, seconds, workdir, errlog, grid):
    points = GRID_POINTS if grid else [SPARSE_POINT]
    runs = GRID_RUNS if grid else SPARSE_RUNS
    windows = GRID_WINDOWS if grid else SPARSE_WINDOWS
    jobs = GRID_JOBS if grid else 1
    checked = GRID_CHECKED if grid else SPARSE_CHECKED
    reference = load_reference()

    def invoke(point, point_seed, budget):
        state_dir = None
        if grid:
            state_dir = os.path.join(workdir, "state")
            shutil.rmtree(state_dir, ignore_errors=True)
        run = run_tool(ler_args(point, runs, budget, point_seed, jobs,
                                state_dir), errlog)
        journal = None
        if grid and run.code == 0:
            journal = read_journal(state_dir)
            shutil.rmtree(state_dir, ignore_errors=True)
        return run, journal

    # Set-up: the same invocations with a zero-window budget, spread
    # evenly over the run so that one slow host period cannot set their
    # median; a run too short for all of them ends with the rest.
    setup = []

    def take_setup(share):
        while len(setup) < SETUP_REPEATS * share:
            i = len(setup)
            run, _ = invoke(points[i % len(points)], derive(seed, 1, i), 0)
            if run.code != 0:
                fail("zero-window qpf_ler exited %d" % run.code)
            setup.append(run.wall)

    tallies = {point: PointTally() for point in points}
    latencies, rss = [], []
    bad_trials = 0
    total_windows, total_wall = 0, 0.0
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < seconds:
        for point in points:
            run, journal = invoke(point, derive(seed, 2, index), windows)
            index += 1
            take_setup(min(1.0, (time.perf_counter() - start) / seconds))
            tally = tallies[point]
            tally.trials += runs
            latencies.append(run.wall * 1e3)
            rss.append(run.rss_kb)
            line = parse_ler(run.out)
            ok = (run.code == 0 and line.get("trials") == str(runs)
                  and line.get("timed_out") == "0"
                  and float(line.get("window_cv", "nan")) == 0.0)
            if not ok:
                bad_trials += runs
                continue
            if grid:
                trials = [e for e in journal if e.get("kind") == "trial"]
                good = [e for e in trials
                        if e.get("windows") == windows
                        and e.get("timed_out") == 0
                        and (not point[2]
                             or e.get("saved_slots") < SLOTS_CEILING)]
                bad_trials += runs - len(good)
                errors = sum(e["logical_errors"] for e in trials)
            else:
                errors_f = float(line["mean_ler"]) * runs * windows
                errors = round(errors_f)
                slots = float(line["saved_slots"])
                if abs(errors_f - errors) > 1e-6 * max(1.0, errors_f) or (
                        point[2] and slots >= SLOTS_CEILING):
                    bad_trials += runs
            if tally.invocations < checked:
                tally.invocations += 1
                tally.windows += runs * windows
                tally.errors += errors
            total_windows += runs * windows
            total_wall += run.wall
    take_setup(1.0)

    check_statistics(result, tallies, reference)
    result.check("trials ran their window budget", bad_trials == 0,
                 "bad=%d" % bad_trials)
    result.attempted = sum(t.trials for t in tallies.values())
    result.failed = min(result.attempted,
                        bad_trials + sum(t.failed for t in tallies.values()))
    invocations = len(latencies)
    result.metric("ops_per_sec", total_windows / max(total_wall, 1e-9), "1/s",
                  "%d windows in %d point invocations"
                  % (total_windows, invocations),
                  "ops_per_sec (windows_per_sec)")
    result.metric("latency_ms_p50", quantile(latencies, 0.5), "ms",
                  "%d point invocations" % invocations)
    result.metric("latency_ms_tail", quantile(latencies, 0.9), "ms",
                  "%d point invocations" % invocations,
                  "latency_ms_tail (p90 point invocation)")
    result.metric("setup_s", statistics.median(setup), "s",
                  "%d zero-window invocations" % len(setup))
    result.metric("peak_rss_mb", max(rss) / 1024.0, "MiB",
                  "%d qpf_ler processes" % len(rss))
    result.note("windows=%d trials=%d points=%d jobs=%d trial_windows=%d "
                "checked_invocations_per_point=%d"
                % (total_windows, result.attempted, len(points), jobs, windows,
                   checked))


# --- serve workload --------------------------------------------------------

def serve_load(port, seed, seconds, errlog, trace=False):
    args = ["serve-load", "--port=%d" % port, "--tenants=%d" % TENANTS,
            "--seconds=%g" % seconds, "--seed=%d" % seed]
    if trace:
        args.append("--trace")
    return perfbench(args, errlog)


def serve_failures(load):
    return (load["error_replies"] + load["overloaded_replies"]
            + load["mismatches"] + load["transport_failures"])


def run_serve_workload(result, seed, seconds, errlog):
    # Set-up samples: half before the load and half after it, so that
    # they span the run rather than one host period.
    setup = []

    def take_setup(count):
        for _ in range(count):
            i = len(setup)
            with Server(errlog) as server:
                load = serve_load(server.port, derive(seed, 1, i), 0, errlog)
            setup.append(server.listening + load["open_s"])

    take_setup(SETUP_REPEATS // 4)
    with Server(errlog) as server:
        load = serve_load(server.port, seed, seconds, errlog)
        code, rss_kb = server.stop()
    take_setup(SETUP_REPEATS // 4)
    result.attempted = load["requests"] + load["transport_failures"]
    result.failed = serve_failures(load)
    result.check("replies match Session replay",
                 load["mismatches"] == 0, "mismatches=%d" % load["mismatches"])
    result.check("qpf_serve drained cleanly", code == 130, "exit=%d" % code)
    result.check("at least 1000 requests", load["requests"] >= 1000,
                 "requests=%d" % load["requests"])
    ok, slices = load["ok"], load["slices"]
    result.metric("ops_per_sec", load["req_per_sec"], "1/s",
                  "%d replies, median of %d one-second slices" % (ok, slices),
                  "ops_per_sec (req_per_sec)")
    result.metric("latency_ms_p50", load["rtt_ms_p50"], "ms",
                  "%d requests" % ok)
    result.metric("latency_ms_tail", load["rtt_ms_p99"], "ms",
                  "%d requests, median p99 of %d one-second slices"
                  % (ok, slices),
                  "latency_ms_tail (latency_ms_p99)")
    result.metric("setup_s", statistics.median(setup), "s",
                  "%d server starts" % len(setup))
    result.metric("peak_rss_mb", rss_kb / 1024.0, "MiB", "1 qpf_serve process")
    result.note("tenants=%d requests=%d submit=%d measure=%d snapshot=%d"
                % (TENANTS, load["requests"], load["n.submit"],
                   load["n.measure"], load["n.snapshot"]))


# --- traced run ------------------------------------------------------------

def point_spec(points):
    return ",".join("%s:%s:%d" % point for point in points)


# The metric families each workload loads.  Every traced run prints every
# per-layer row, so the rows of a family the workload does not load are
# borrowed from a fixed stand-in and marked as such in the printed output:
# a move there is a move of the stand-in's code, not of this workload.
OWN_FAMILIES = {
    "ler_sparse": {"arch", "qec", "core", "stabilizer", "trace"},
    "ler_grid": {"arch", "qec", "core", "stabilizer", "trace", "exec",
                 "journal"},
    "serve_tenants": {"serve"},
}
STAND_INS = {"arch": "ler_sparse point", "qec": "ler_sparse point",
             "core": "ler_sparse point", "stabilizer": "ler_sparse point",
             "trace": "ler_sparse point", "exec": "ler_grid trials",
             "journal": "ler_grid trials", "serve": "serve_tenants load"}


def run_traced(result, workload, seed, seconds, workdir, errlog, per_layer):
    # The chain family runs on the workload's own points; serve_tenants
    # loads no QEC window, so its chain rows use ler_sparse's point.
    if workload == "ler_grid":
        points, windows = GRID_POINTS, GRID_WINDOWS
        trials = max(1, int(seconds // 5))
    else:
        points, windows = [SPARSE_POINT], SPARSE_WINDOWS
        trials = max(2, int(seconds))
    chain = perfbench(["trace-ler", "--points=" + point_spec(points),
                       "--windows=%d" % windows, "--trials=%d" % trials,
                       "--seed=%d" % seed], errlog)
    execution = perfbench(["trace-exec", "--points=" + point_spec(GRID_POINTS),
                           "--windows=%d" % GRID_WINDOWS,
                           "--trials=%d" % GRID_RUNS, "--jobs=%d" % GRID_JOBS,
                           "--seed=%d" % seed, "--dir=" + workdir], errlog)
    serve_seconds = (seconds / 2 if workload == "serve_tenants"
                     else max(1.0, seconds / 5))
    with Server(errlog) as server:
        load = serve_load(server.port, seed, serve_seconds, errlog, trace=True)
        code, _ = server.stop()

    result.check("traced chain equals untraced LerStack",
                 chain["mismatched_trials"] == 0,
                 "trials=%d mismatched=%d" % (chain["trials"],
                                              chain["mismatched_trials"]))
    result.check("spans nest (no negative self time)",
                 chain["negative_spans"] == 0,
                 "negative=%d" % chain["negative_spans"])
    result.check("self times + glue = untraced window",
                 chain["account_ok"] == 1,
                 "gap=%+.4f tolerance=%g" % (chain["account_gap"],
                                             chain["account_tolerance"]))
    result.check("saved slots under Eq 5.12 ceiling",
                 chain["max_saved_slots"] < SLOTS_CEILING,
                 "max=%.4g" % chain["max_saved_slots"])
    result.check("exec trials ran their window budget",
                 execution["short_trials"] == 0,
                 "committed=%d" % execution["committed"])
    result.check("replies match Session replay",
                 load["mismatches"] == 0, "mismatches=%d" % load["mismatches"])
    result.check("qpf_serve drained cleanly", code == 130, "exit=%d" % code)
    result.attempted = (chain["trials"] + execution["committed"]
                        + load["requests"])
    result.failed = (chain["mismatched_trials"] + execution["short_trials"]
                     + serve_failures(load))

    samples = {"arch": "%d traced windows" % chain["windows"],
               "qec": "%d traced windows" % chain["windows"],
               "core": "%d traced windows" % chain["windows"],
               "stabilizer": "%d traced windows" % chain["windows"],
               "exec": "%d trials, jobs=%d" % (execution["committed"],
                                                 execution["jobs"]),
               "journal": "%d appends" % execution["committed"],
               "serve": "%d requests" % load["requests"],
               "trace": "%d traced windows" % chain["windows"]}
    values = dict(chain)
    values.update(execution)
    values.update(load)
    values["serve.error_replies"] = load["error_replies"]
    values["serve.overloaded_replies"] = load["overloaded_replies"]
    for name, unit in per_layer:
        family = name.split(".")[0]
        count = samples[family]
        if family not in OWN_FAMILIES[workload]:
            count += " [borrowed: %s]" % STAND_INS[family]
        result.metric(name, float(values[name]), unit, count)
    result.note("traced window %.3f us = self times %.3f + loop glue %.3f + "
                "tracer %.3f (probe crossings %.3f at %.1f+%.1f ns each, "
                "observers %.3f); untraced window %.3f us"
                % (chain["window_us"],
                   chain["window_us"] - chain["glue_us"] - chain["probe_us"]
                   - chain["observe_us"],
                   chain["glue_us"], chain["probe_us"] + chain["observe_us"],
                   chain["probe_us"], chain["probe_inside_ns"],
                   chain["probe_outside_ns"], chain["observe_us"],
                   chain["untraced_window_us"]))
    result.note("unattributed share of a %s window: %.4f (loop glue / "
                "(self times + glue))"
                % ("ler_grid" if workload == "ler_grid" else "ler_sparse",
                   chain["arch.unattributed_frac"]))


# --- main ------------------------------------------------------------------

WORKLOADS = ("ler_sparse", "ler_grid", "serve_tenants")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    build()
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    result = Result(args.workload, args.seed, args.seconds, args.trace)
    try:
        with open(os.path.join(workdir, "stderr.log"), "w") as errlog:
            if args.trace:
                run_traced(result, args.workload, args.seed, args.seconds,
                           workdir, errlog, per_layer)
            elif args.workload == "serve_tenants":
                run_serve_workload(result, args.seed, args.seconds, errlog)
            else:
                run_ler_workload(result, args.seed, args.seconds, workdir,
                                 errlog, grid=args.workload == "ler_grid")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.emit()


if __name__ == "__main__":
    main()
