#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark program through run.py if needed, then checks that
  * the benchmark's own arithmetic (the max_rps ladder rule, quantiles)
    passes perfbench --self-test;
  * the same seed gives the same graph-set and request-stream digests and
    another seed gives other ones;
  * BENCHMARK.json names are well formed, and the metrics each workload
    prints match BENCHMARK.json both ways, end-to-end and traced;
  * a one-second smoke configuration of every workload runs to completion
    with its output checks passing.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
PERFBENCH = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SECONDS = "1"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SMOKE_SECONDS,
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return p


def digests(seed):
    p = subprocess.run([PERFBENCH, "--digest", "--seed", str(seed)],
                       stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(p.stdout)


class Spec(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_present(self):
        e2e = {m["name"]: m for m in spec()["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # The first smoke run builds the program.
        cls.first = run_bench(spec()["workloads"][0]["name"], 1, 0)

    def test_self_test_passes(self):
        p = subprocess.run([PERFBENCH, "--self-test"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertEqual(p.stdout.strip(), "ok")

    def test_digests_follow_the_seed(self):
        a, b, c = digests(7), digests(7), digests(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a["graph_set"], c["graph_set"])
        self.assertNotEqual(a["request_stream"], c["request_stream"])

    def test_smoke_runs_print_the_declared_metrics(self):
        s = spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[section]}
            for w in s["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    p = (self.first if (trace, w["name"]) ==
                         (0, s["workloads"][0]["name"])
                         else run_bench(w["name"], 1, trace))
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    r = json.loads(p.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(r), ["attempted", "correct", "failed",
                                    "metrics"])
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for k in got:
                        self.assertRegex(k, NAME)
                    if trace == 0:
                        for k, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_unknown_workload_is_refused(self):
        p = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
