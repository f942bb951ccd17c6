#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set, relative to the checkout);
its output goes to standard error, so the last line of standard output is
the benchmark's result object.  A failed build exits nonzero without a
result.  Traced runs write their spans to <build>/trace-<workload>-<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    def run(cmd):
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(out, "build.ninja")) and \
            not os.path.exists(os.path.join(out, "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"] + gen):
            return False
    return run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
