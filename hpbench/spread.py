#!/usr/bin/env python3
"""Runs one hpbench workload over several seeds and prints, per metric,
the median and the spread (interquartile range as a share of the median,
from statistics.quantiles(values, n=4)) — the figures a regression bound
has to cover.

    python3 hpbench/spread.py --workload fleet-ingest --seeds 1-10 [--trace 0]

Run from the root of an hpcap checkout, like run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values, failed, attempted = {}, [], []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: correct=false" % seed)
            return 1
        failed.append(result["failed"])
        attempted.append(result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
    print("%-36s %14s %9s %14s %14s" % ("metric", "median", "iqr/med",
                                         "min", "max"))
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        print("%-36s %14.6g %9.4f %14.6g %14.6g" % (name, med, share, min(v),
                                                     max(v)))
    print("failed share per run: %s" % sorted(
        set(f / a for f, a in zip(failed, attempted))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
