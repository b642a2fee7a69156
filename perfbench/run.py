#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
paserta library, paserta_cli and perfbench into .bench_build/; later
runs only check the build. The program's result is the last line on
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics; the span file of a traced run lands in .bench_out/.

Host provenance (nproc, load average before and after, git revision and
dirty flag, build type, CPU time against wall time and involuntary context
switches of perfbench and its children, and the share of CPU time the
hypervisor stole) goes to stderr and to
.bench_out/provenance-<workload>-<seed>-<trace>.json.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(env):
    """Configures (once per checkout location) and builds the targets."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "paserta_cli",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def git_state():
    def git(*args):
        try:
            p = subprocess.run(["git", "-C", ROOT] + list(args),
                               capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    rev = git("rev-parse", "--short", "HEAD")
    if rev is None:
        return "unknown", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return rev, ("unknown" if status is None else bool(status))


def run_perfbench(cmd, env):
    """Runs perfbench in its own process group; returns (returncode,
    stdout, wall seconds, rusage delta of it and its reaped children)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        # Nothing perfbench started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    nivcsw = after.ru_nivcsw - before.ru_nivcsw
    return proc.returncode, out, wall, cpu, nivcsw


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2

    os.makedirs(TMP, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    if not build(env):
        log("build failed")
        return 1

    cli = os.path.join(BUILD, "paserta_cli")
    prov = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "loadavg_before": loadavg(),
            "build_type": BUILD_TYPE}
    prov["git_rev"], prov["dirty"] = git_state()
    version = subprocess.run([cli, "--version"], capture_output=True,
                             text=True)
    prov["program"] = version.stdout.strip()

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", cli, "--out-dir", OUT]
    steal0, total0 = cpu_ticks()
    ran = run_perfbench(cmd, env)
    steal1, total1 = cpu_ticks()
    if ran is None:
        return 1
    rc, out, wall, cpu, nivcsw = ran
    prov["loadavg_after"] = loadavg()
    prov["wall_s"] = wall
    prov["cpu_s"] = cpu
    prov["cpu_wall_ratio"] = cpu / wall if wall > 0 else 0.0
    prov["invol_ctx_switches"] = nivcsw
    # Time the hypervisor ran something else while our CPUs wanted to run.
    prov["steal_frac"] = ((steal1 - steal0) / (total1 - total0)
                          if total1 > total0 else 0.0)
    name = "provenance-%s-%d-%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(prov, f, indent=1)
    log("provenance " + json.dumps(prov))
    if rc != 0:
        log("perfbench exited with %d" % rc)
        return 1

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("perfbench printed no result")
        return 1
    result = json.loads(lines[-1])
    if args.trace:
        result["metrics"]["host.invol_ctx_switches"] = {
            "value": nivcsw, "unit": "count"}
        result["metrics"]["host.cpu_wall_ratio"] = {
            "value": prov["cpu_wall_ratio"], "unit": "ratio"}
        result["metrics"]["host.steal_frac"] = {
            "value": prov["steal_frac"], "unit": "ratio"}

    # The printed metrics must be exactly the ones BENCHMARK.json names.
    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log("metric set differs from BENCHMARK.json %s: missing %s, extra %s,"
            " unit mismatches %s" % (
                section, sorted(set(want) - set(got)),
                sorted(set(got) - set(want)),
                sorted(k for k in want if k in got and want[k] != got[k])))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
