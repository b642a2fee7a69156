#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and judges each metric's spread.

    python3 perfbench/steady.py --workload fig4a_sweep [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]
        [--save FILE] [--compare FILE]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median and, for end-to-end metrics, the metric's
bound from BENCHMARK.json and the spread as a share of it. It exits 1
when a run fails or reports an incorrect result, or when an end-to-end
spread exceeds its bound.

--save writes the raw values as JSON; --compare reads such a file and
checks that no median here is worse than there by more than the bound
(setup_s included), as two sets of runs of one commit must agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    if better == "lower":
        return (second - first) / abs(first)
    return (first - second) / abs(first)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    values = {}
    units = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds, args.trace)
        if r is None or not r["correct"] or r["failed"]:
            print("run seed=%d failed: %s" % (seed, r), file=sys.stderr)
            ok = False
            continue
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d done" % seed, file=sys.stderr, flush=True)

    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    print("%-28s %-6s %14s %14s %14s %8s %6s %7s %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound",
        "/bound", "verdict"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        line = "%-28s %-6s %14.6g %14.6g %14.6g %8.4f" % (
            name, units[name], med, q1, q3, spread)
        if name in e2e:
            bound = e2e[name]["bound"]
            verdict = "ok"
            if spread > bound:
                verdict = "SPREAD > BOUND"
                ok = False
            elif spread > bound / 3:
                verdict = "above bound/3"
            if previous and name in previous:
                drift = worse_by(statistics.median(previous[name]), med,
                                 e2e[name]["better"])
                if drift > bound:
                    verdict += "; median worse than --compare by %.3f" % drift
                    ok = False
            line += " %6.3f %7.3f %s" % (bound, spread / bound, verdict)
        print(line)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
