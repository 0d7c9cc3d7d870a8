#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program from this checkout and run it.

    python3 perfbench/run.py --workload ingest|query_aged|service_wire \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program is compiled with CMake into
$CARGO_TARGET_DIR (default .bench_build) and keeps its volumes in
.bench_work, both under the working directory. The last line of standard
output is the program's JSON result; build output goes to standard error.
The exit status is the program's: non-zero when a correctness check failed,
and also when the sources cannot be built.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then build incrementally; returns the program path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.abspath(".bench_work")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=work_dir)
    cmd = [exe, *sys.argv[1:], "--work-dir", work_dir]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
