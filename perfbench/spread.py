#!/usr/bin/env python3
"""Run the benchmark on several seeds and report, per metric, the median
and the quartile spread (q3 - q1) / median, as statistics.quantiles(n=4)
gives the quartiles. Runs are untraced and last BENCHMARK.json's
run_seconds, so this is the spread the metric bounds there are sized
against (see perfbench/README.md).

    python3 perfbench/spread.py --workload serve --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    a = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lo, hi = (int(x) for x in a.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit("seed %d: run failed" % seed)
        r = json.loads(out.stdout.strip().split("\n")[-1])
        print("seed %d (%.0f s): correct=%s attempted=%d failed=%d %s" % (
            seed, time.monotonic() - t0, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())), flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        b = bounds.get(k)
        print("%-14s median %-12.6g spread %.4f%s" % (
            k, med, spread, "" if b is None else "  (bound %.2f, bound/3 %.4f)" % (b, b / 3)))


if __name__ == "__main__":
    main()
