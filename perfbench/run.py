#!/usr/bin/env python3
"""Builds the repository benchmark from the checkout's sources and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
the directory named by $CARGO_TARGET_DIR, or .bench_build by default; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's result JSON. Exits non-zero, printing no
result, when the program sources are missing or do not build.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lifecycle", "chain_apply", "gossip", "reuse")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "pds2_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "pds2_perfbench")


def commit():
    """The git HEAD, or for a checkout without git metadata a digest of the
    program sources it builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds (tests)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.rounds > 0:
        cmd += ["--rounds", str(args.rounds)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
