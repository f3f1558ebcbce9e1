#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the program's libraries and the
workload runner from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
arithmetic self-test, then runs one workload in a fresh storage root under
the build directory and removes that root afterwards. The runner's last
stdout line is the JSON result; build output goes to stderr.

    python3 perfbench/run.py --verify --workload <name> --seed <n> --seconds <s>

runs the traced workload twice with the same seed and checks that the
seed-fixed counts repeat exactly.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("counter_read", "counter_write", "gridbox_x509")
# Counts fixed by the seed: they must repeat exactly across same-seed runs.
SEED_FIXED = ("net.messages_per_op", "xmldb.writes_per_op",
              "gridbox.outcalls_per_op", "delivery.calls_per_op")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(out, "perfbench_selftest")], check=True)
    return os.path.join(out, "perfbench")


def run_once(binary, args, trace):
    """Runs the perfbench binary; returns (exit code, stdout lines)."""
    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def verify(binary, args):
    results = []
    for _ in range(2):
        code, lines = run_once(binary, args, 1)
        print("\n".join(lines))
        if code != 0:
            return code
        results.append(json.loads(lines[-1])["metrics"])
    ok = True
    for name, first in sorted(results[0].items()):
        if name.split(".", 1)[-1] not in SEED_FIXED:
            continue
        second = results[1][name]["value"]
        same = first["value"] == second
        ok = ok and same
        print("%-32s %12g %12g %s" % (name, first["value"], second,
                                      "same" if same else "DIFFERS"))
    print("seed-fixed counts repeat" if ok else "seed-fixed counts DIFFER")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.verify:
        return verify(binary, args)
    code, lines = run_once(binary, args, args.trace)
    print("\n".join(lines))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
