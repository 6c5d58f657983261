#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/ there
(CMake, Release). The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output check passed. --selftest runs the helper tests and checks the
metric names against BENCHMARK.json. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
TEST_BINARY = os.path.join(BUILD, "perfbench_helpers_test")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the two benchmark targets."""
    # Keep every file the build writes inside the checkout: no compiler
    # cache, and compiler temporaries under the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
           "perfbench_helpers_test"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(result, trace):
    """The result line must carry every declared metric in its unit."""
    end_to_end, per_layer = load_spec()
    declared = per_layer if trace else end_to_end
    ok = (isinstance(result.get("correct"), bool)
          and isinstance(result.get("attempted"), int)
          and isinstance(result.get("failed"), int)
          and result["attempted"] >= 1)
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != declared:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(declared.items())))
        ok = False
    return ok


def selftest():
    if subprocess.run([TEST_BINARY]).returncode != 0:
        return 1
    listing = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
    end_to_end, per_layer = load_spec()
    emitted = {0: set(), 1: set()}
    failures = 0
    for line in filter(None, listing):
        trace, name = line.split()
        emitted[int(trace)].add(name)
        if not NAME.match(name):
            log("bad metric name: " + line)
            failures += 1
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        if emitted[trace] != set(declared):
            log("BENCHMARK.json and perfbench disagree on: %s" %
                sorted(emitted[trace] ^ set(declared)))
            failures += 1
    for name in list(end_to_end) + list(per_layer):
        if not NAME.match(name):
            log("bad metric name in BENCHMARK.json: " + name)
            failures += 1
    print("selftest: %s" % ("ok" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("no result line (exit code %d)" % proc.returncode)
        return 1
    if not check_result(result, args.trace):
        result["correct"] = False
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
