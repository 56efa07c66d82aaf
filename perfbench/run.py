#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the
program's src/ into its own library) under .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs rebuild only what changed. All
arguments are passed to the perfbench binary, whose last line of standard
output is the JSON result. Build output goes to standard error.

    python3 perfbench/run.py --self-test

builds, runs the check tests and a short end-to-end pass of every workload.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("region_campaigns", "pattern_extraction", "service_mix")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def local_env(out):
    """Environment whose temporary files stay inside the build tree."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "analysis.h")):
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=local_env(out))
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def self_test(out):
    """Check tests, then every workload once in short mode."""
    r = subprocess.run([os.path.join(out, "perfbench_checks_test")])
    if r.returncode != 0:
        return r.returncode
    for trace in ("0", "1"):
        for w in WORKLOADS:
            cmd = [os.path.join(out, "perfbench"), "--workload", w,
                   "--seed", "7", "--seconds", "1", "--trace", trace,
                   "--short"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               env=local_env(out))
            lines = r.stdout.strip().splitlines()
            ok = r.returncode == 0 and lines
            result = json.loads(lines[-1]) if ok else None
            if not result or not result["correct"] or result["attempted"] < 1:
                sys.stderr.write(r.stdout + r.stderr)
                print(f"FAIL short {w} trace={trace}")
                return 1
            print(f"ok   short {w} trace={trace}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
    return 0


def main():
    out = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(out)
    r = subprocess.run([os.path.join(out, "perfbench")] + sys.argv[1:],
                       cwd=ROOT, env=local_env(out))
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
