#!/usr/bin/env python3
"""Steadiness check: run every workload N times, alternating the order of
the workloads from one pass to the next, each run with its own seed, and
print for every end-to-end metric and workload the median, the quartiles
and their spread ((q3 - q1) / median), plus the operations attempted and
failed. Then check that what DOT decides repeats exactly in every run:
`objective_cents` and the per-round triggers, applied plans, transfer
waves and migration makespan that each run prints.

    python3 perfbench/steady.py [--runs 10] [--seconds 25] [--seed0 1]

Run from the root of the checkout. Each run is `bash perfbench/run.sh
--workload <w> --seed <seed0 + i> --seconds <s> --trace 0`.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ["provision-sweep", "observe-steady", "observe-drift"]
PER_ROUND = re.compile(r"per round: (.*)$")


def one_run(workload, seed, seconds):
    started = time.monotonic()
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    exact = {"objective_cents": result["metrics"]["objective_cents"]["value"]}
    for line in lines:
        m = PER_ROUND.search(line)
        if m:
            words = m.group(1).split()
            exact.update(zip(words[::2], words[1::2]))
    result["exact"] = exact
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    results = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            r = one_run(w, args.seed0 + i, args.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {args.seed0 + i}: "
                  f"{r['wall_s']:.1f} s, attempted {r['attempted']}, failed {r['failed']}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':<16} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for w in WORKLOADS:
        runs = results[w]
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print(f"{w:<16} {name + ' (' + m['unit'] + ')':<20} {q2:>12.4f} {q1:>12.4f} "
                  f"{q3:>12.4f} {spread:>7.3f}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"{w:<16} attempted {attempted}, failed {failed}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")

    print("\nexact across runs:")
    for w in WORKLOADS:
        for name in results[w][0]["exact"]:
            seen = sorted({str(r["exact"].get(name)) for r in results[w]})
            verdict = "identical" if len(seen) == 1 else "DIFFERS"
            print(f"{w:<16} {name:<22} {verdict}: {', '.join(seen)}")


if __name__ == "__main__":
    main()
