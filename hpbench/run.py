#!/usr/bin/env python3
"""hpbench: the end-to-end benchmark of hpcap.

Run from the root of an hpcap checkout:

    python3 hpbench/run.py --workload paper-pipeline --seed 1 --seconds 10 --trace 0

Builds hpcapd, hpcapctl and the harness (first run only; the build tree
is $CARGO_TARGET_DIR/hpcap, default .bench_build/hpcap), makes the
workload's inputs from --seed with `hpcapctl collect` and `hpcapctl
train`, and runs the harness, which drives a real hpcapd process. The
last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is 0 only when every correctness check passed; a run
that fails one still prints its result line, then exits 1.

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Each run's full record (host stamp, checks, reconcile
numbers) is written under .bench_out/runs/. `--self-test` runs every
workload on a one-second input and confirms that each correctness check
fails when one decision field, STATS count, label or fault tally is
altered. See hpbench/README.md.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "paper-pipeline": "SVM",
    "fleet-ingest": "TAN",
    "agents-open-loop": "TAN",
}
# Held-out traces (hpcapctl collect --recipe test), in stream order.
HELD_OUT = ("ordering", "interleaved")
HARD_LIMIT_S = 170.0
TRAIN_REPEATS = 7
# The trained bundle is part of the system under test, not of the traffic:
# every run trains the paper's recipe at this one seed, so inference cost
# is the same model's from run to run. --seed varies the held-out traffic
# (collect seed = seed + 1000), the sampling noise and the fault mix.
TRAIN_SEED = 42
# The harness's exit status for a run that completed but failed a
# correctness check; it still prints its result object.
HARNESS_INCORRECT = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def metric_units(root):
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_quiet(cmd, log_path, timeout):
    """Runs cmd with its output appended to log_path; returns its exit code.

    Waits in a blocking waitpid, not Popen.wait(timeout)'s polling loop,
    whose sleeps of up to 50 ms would quantize the train_s timing; a timer
    kills the child at the deadline instead."""
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def build(root, out_dir):
    """Configures (once) and builds the daemon, the CLI and the harness."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise RuntimeError("not the root of an hpcap checkout: " + root)
    bdir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hpcap")
    bdir = os.path.abspath(os.path.join(root, bdir))
    build_log = os.path.join(out_dir, "build.log")
    inject = os.path.join(HERE, "inject.cmake")
    cache = os.path.join(bdir, "CMakeCache.txt")
    configured = os.path.isfile(cache) and inject in open(cache).read()
    if not configured:
        cmd = ["cmake", "-S", root, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DCMAKE_PROJECT_hpcap_INCLUDE=" + inject]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, build_log, 600) != 0:
            raise RuntimeError("configure failed; see " + build_log)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "hpcapd", "hpcapctl",
           "hpbench_harness", "-j", jobs]
    if run_quiet(cmd, build_log, 840) != 0:
        raise RuntimeError("build failed; see " + build_log)
    return bdir


def host_stamp(bdir):
    cache = {}
    for line in open(os.path.join(bdir, "CMakeCache.txt")):
        if ":" in line and "=" in line and not line.startswith("//"):
            key, value = line.rstrip("\n").split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def prepare(bdir, work, workload, seed, deadline):
    """Makes the held-out traces and trains the bundle; returns train_s
    and every train's wall time."""
    ctl = os.path.join(bdir, "tools", "hpcapctl")
    prep_log = os.path.join(work, "prepare.log")
    procs = []
    try:
        with open(prep_log, "ab") as out:
            for name in HELD_OUT:
                procs.append(subprocess.Popen(
                    [ctl, "collect", "--out", os.path.join(work, name + ".csv"),
                     "--workload", name, "--recipe", "test",
                     "--seed", str(seed + 1000)],
                    stdout=out, stderr=subprocess.STDOUT))
        for p in procs:
            if p.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                raise RuntimeError("hpcapctl collect failed; see " + prep_log)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    # train_s is the fastest of TRAIN_REPEATS identical trains (the bundle
    # is deterministic, so each rewrites the same bytes): hypervisor steal
    # on a shared host only ever adds time, in spells of a few seconds.
    times = []
    for _ in range(TRAIN_REPEATS):
        start = time.perf_counter()
        rc = run_quiet([ctl, "train", "--out",
                        os.path.join(work, "model.hpcap"), "--level", "hpc",
                        "--learner", WORKLOADS[workload],
                        "--seed", str(TRAIN_SEED)],
                       prep_log, max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError("hpcapctl train failed; see " + prep_log)
    return min(times), times


def run_once(root, bdir, out_dir, workload, seed, seconds, trace):
    """One benchmark run; returns (result line dict, full record)."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    work = os.path.join(out_dir, "work",
                        "%s-s%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    train_s, train_times = prepare(bdir, work, workload, seed, deadline)
    cmd = [os.path.join(bdir, "hpbench_harness"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--hpcapd", os.path.join(bdir, "tools", "hpcapd"),
           "--model", os.path.join(work, "model.hpcap"),
           "--heldout", ",".join(os.path.join(work, n + ".csv")
                                 for n in HELD_OUT),
           "--train-seed", str(TRAIN_SEED), "--work", work]
    if trace:
        cmd.append("--trace")
    # Its own process group, so that a harness past the deadline goes
    # down together with the hpcapd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness did not finish before the deadline")
    if proc.returncode not in (0, HARNESS_INCORRECT) or not stdout.strip():
        sys.stderr.write(stderr)
        raise RuntimeError("harness failed (exit %d)" % proc.returncode)
    h = json.loads(stdout.strip().splitlines()[-1])

    end_to_end, per_layer = metric_units(root)
    if trace:
        values = dict(h["layers"])
        names = per_layer
    else:
        values = dict(h["e2e"], train_s=train_s)
        names = end_to_end
    metrics = {}
    correct = bool(h["correct"])
    for name, unit in names.items():
        if values.get(name) is None:
            correct = False
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": correct, "attempted": int(h["attempted"]),
              "failed": int(h["failed"]), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": host_stamp(bdir),
              "wall_s": time.monotonic() - started, "result": result,
              "checks": h["checks"], "info": h["info"], "e2e": h["e2e"],
              "train_s": train_s, "train_times_s": train_times,
              "layers": h["layers"],
              "daemon_stdout": h["daemon_stdout"]}
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return result, record


def write_record(out_dir, record):
    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    name = "%s-%s-s%d-t%d.json" % (time.strftime("%Y%m%dT%H%M%S"),
                                   record["workload"], record["seed"],
                                   record["trace"])
    with open(os.path.join(runs, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return os.path.join(runs, name)


def self_test(root, bdir, out_dir):
    ok = True
    for workload in WORKLOADS:
        result, record = run_once(root, bdir, out_dir, workload, 7, 1, False)
        st = record["checks"].get("self_test")
        good = result["correct"] and st == "ok"
        ok = ok and good
        log("self-test %-17s %s (%d frames, %d mutations caught; checks: %s)"
            % (workload, "ok" if good else "FAILED", result["attempted"],
               record["info"].get("self_test_mutations_caught", 0),
            ", ".join("%s=%s" % kv for kv in sorted(record["checks"].items()))))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_out")
    try:
        os.makedirs(out_dir, exist_ok=True)
        bdir = build(root, out_dir)
        if args.self_test:
            return 0 if self_test(root, bdir, out_dir) else 1
        result, record = run_once(root, bdir, out_dir, args.workload,
                                  args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("hpbench: %s" % e)
        return 1
    path = write_record(out_dir, record)
    info = record["info"]
    print("hpbench %s seed %d: %d frames, %d decisions, host %s" % (
        args.workload, args.seed, result["attempted"],
        int(info.get("decisions", 0)), json.dumps(record["host"])))
    print("latency samples %d; generator late mean %.1f us, max %.1f us" % (
        int(info.get("latency_samples", 0)),
        info.get("generator_late_mean_us", 0.0),
        info.get("generator_late_max_us", 0.0)))
    if "reconcile" in info:
        print("reconcile: %s" % json.dumps(info["reconcile"], sort_keys=True))
    print("checks: %s; record %s" % (json.dumps(record["checks"]),
                                     os.path.relpath(path, root)))
    print(json.dumps(result))
    if not result["correct"]:
        log("hpbench: a correctness check failed; see %s" %
            os.path.relpath(path, root))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
