#!/usr/bin/env python3
"""Builds the benchmark from source and runs one of its workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The first form prints the workload's metrics as one JSON object on the last
line of standard output; the second builds and runs the known-slowdown
self-check. Both configure and build perfbench/CMakeLists.txt (the
repository's libraries plus the benchmark) into <checkout>/.bench_build on
first use; build output goes to standard error.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build(target):
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return BUILD / target


def main():
    selfcheck = sys.argv[1:] == ["--selfcheck"]
    try:
        binary = build("perfbench_selfcheck" if selfcheck else "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    args = [] if selfcheck else sys.argv[1:]
    return subprocess.run([str(binary), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
