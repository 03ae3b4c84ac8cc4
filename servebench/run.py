#!/usr/bin/env python3
"""Builds and runs the serving benchmark (servebench) from the repository root.

    python3 servebench/run.py --workload point_mix --seed 1 --seconds 15 --trace 0

Configures and builds servebench/CMakeLists.txt (the pnn library from src/
plus the benchmark) into $CARGO_TARGET_DIR/servebench, default
.bench_build/servebench; a build that is up to date costs about a second.
Then runs the benchmark with the given arguments and a work directory for
its stores under the build directory. Build output goes to stderr; the
benchmark's stdout passes through, so its JSON result is the last line.
Exits nonzero when the build or the run fails. Extra arguments (--tiny,
--wrong-reference) are passed through.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "servebench")

    configure = ["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build, "-j", jobs]):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
    work = os.path.join(build, "work-" + workload)
    binary = os.path.join(build, "servebench")
    try:
        return subprocess.run([binary, *args, "--dir", work], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
