#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload decode|sweep|serve|fleet \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
`perfbench` (the simulator library from the repository's own CMake
build, plus the benchmark binary) under `.bench_build/perfbench`;
later calls rebuild only what changed. Build output goes to stderr,
so the binary's last stdout line, the result JSON, stays the last
line. Traced runs write their Chrome traces to
`.bench_build/perfbench/out`. The exit code is the binary's: 0 only
when every correctness check passed.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s; a hung binary is killed well before.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generators = ("Makefile", "build.ninja")
        if not any(os.path.exists(os.path.join(BUILD, f)) for f in generators):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return True


def main():
    if not build():
        return 1
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + ["--out", out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
