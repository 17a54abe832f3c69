#!/usr/bin/env python3
"""Builds and runs the BG3 end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload follow-hot --seed 1 --seconds 10 --trace 0

Run it from the repository root. The benchmark and the engine libraries it
links are built from source into .bench_build/perfbench (the directory named
by $CARGO_TARGET_DIR, if set, replaces .bench_build); later runs reuse that
build. The last line of stdout is the run's JSON result. Build output goes to
stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("follow-hot", "recommend-nocache", "risk-control")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(bench_dir, build_dir, env):
    """Configures on first use, then brings the binary up to date."""
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bg3_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must be within 1..60", 2)
    if args.seed < 0:
        return fail("--seed must not be negative", 2)

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        return fail(f"BG3 sources not found under {root / 'src'}", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"

    # Compiler temporaries stay inside the build tree, and no BG3_* variable
    # (tracing, slow-op logging) leaks into the measured program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BG3_")}
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not build(bench_dir, build_dir, env):
        return fail("build failed", 2)

    cmd = [str(build_dir / "bg3_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        sys.stdout.write(done.stdout)
        return fail(f"no result line ({e}); exit code {done.returncode}", 4)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
