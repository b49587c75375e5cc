#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload of BENCHMARK.json several times at its run_seconds,
run i with seed i, and prints every end-to-end metric's median and
quartiles with the spread (Q3 - Q1) / median next to the metric's bound.
A metric whose spread exceeds its bound is flagged, and the script then
exits 1. Run it from the repository root:

    python3 perfbench/steady.py --runs 10

Runs are interleaved across workloads, so machine drift lands on all of
them alike. The machine fingerprint (cores, commit, rustc) is printed first.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "nproc": os.cpu_count(),
        "commit": out(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
        "rustc": out(["rustc", "--version"]) or "unknown",
    }


def run_once(command, workload, seed, seconds, trace):
    """One run: its metric values, wall seconds, and the fewest samples
    any of its p99s left beyond them."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    beyond = [int(n) for n in re.findall(r"(\d+) beyond the p99", proc.stdout)]
    return {k: v["value"] for k, v in result["metrics"].items()}, wall, min(beyond, default=0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    print("machine:", json.dumps(fingerprint()))
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    walls = {w: [] for w in workloads}
    fewest_beyond = {w: [] for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            got, wall, beyond = run_once(bench["command"], w, i + 1, seconds, 0)
            for m in metrics:
                values[w][m["name"]].append(got[m["name"]])
            walls[w].append(wall)
            fewest_beyond[w].append(beyond)
            print(f"run {i + 1}/{opts.runs} {w} ({wall:.1f} s): " +
                  " ".join(f"{k}={got[k]:.4g}" for k in values[w]), flush=True)

    flagged = []
    for w in workloads:
        print(f"\n{w}: wall {statistics.median(walls[w]):.1f} s per run (max {max(walls[w]):.1f}), "
              f"fewest samples beyond a p99: {min(fewest_beyond[w])}")
        if min(fewest_beyond[w]) < 10:
            flagged.append((w, "samples beyond p99"))
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            over = spread > m["bound"]
            mark = ""
            if over:
                flagged.append((w, m["name"]))
                mark = "  FLAG: spread exceeds bound"
            elif spread > m["bound"] / 3:
                mark = "  (above a third of the bound)"
            print(f"  {m['name']:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{mark}")
    if flagged:
        print("\nflagged:", ", ".join(f"{w}/{m}" for w, m in flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
