#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload listing --seeds 1-10 --seconds 10 [--trace 0|1]

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric its median and its quartile spread: (Q3 − Q1) / median, with
the quartiles of statistics.quantiles(values, n=4). Every run must exit 0.
The per-run JSON results are appended to .bench_out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    values = {}
    log = os.path.join(ROOT, ".bench_out", "spread-%s.jsonl" % a.workload)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for s in seeds(a.seeds):
        t0 = time.time()
        p = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", a.workload,
                            "--seed", str(s), "--seconds", a.seconds, "--trace", a.trace],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit("seed %d: exit %d\n%s" % (s, p.returncode, p.stdout))
        res = json.loads(lines[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": s, "wall_s": time.time() - t0, **res}) + "\n")
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print("seed %d: %.0f s wall, %s" % (s, time.time() - t0,
              " ".join("%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items())), flush=True)
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print("%-32s median %-12.6g spread %.4f  min %.6g max %.6g" % (k, med, spread, min(vs), max(vs)))


if __name__ == "__main__":
    main()
