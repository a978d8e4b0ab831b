#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign|serve-closed \
        --seed N --seconds S --trace 0|1

The driver and the libraries it links are compiled from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. Per-run result files and traced runs' Chrome
trace-event JSON land in <build dir>/out. The last stdout line is the
run's JSON result. Extra flags (--record, --corrupt-digest) are passed
through to the driver; see src/main.cc.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    driver = os.path.join(build_dir, "liquid-perfbench")
    cmd = [driver, *sys.argv[1:],
           "--digests", os.path.join(HERE, "digests"),
           "--out", os.path.join(build_dir, "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
