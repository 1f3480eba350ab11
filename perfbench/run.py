#!/usr/bin/env python3
"""Build and run the PanguLU host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fill_heavy --seed 1 --seconds 25 --trace 0

The repository's top-level CMake project is configured unchanged into
<build>/lib and only its library targets are built; the benchmark package in
this directory is then built against those archives. <build> is
$CARGO_TARGET_DIR when set, else .bench_build, relative to the current
directory. Build output goes to stderr; the benchmark binary's standard output
is passed through, so its last line is the JSON result. The exit code is the
binary's (non-zero when the build fails or an output check fails).
"""
import os
import subprocess
import sys

LIBRARY_TARGETS = [
    "pangulu_parallel", "pangulu_io", "pangulu_sparse", "pangulu_matgen",
    "pangulu_ordering", "pangulu_symbolic", "pangulu_block",
    "pangulu_analysis", "pangulu_kernels", "pangulu_runtime",
    "pangulu_solver",
]
JOBS = "4"


def run_build_step(cmd):
    """Run one build command with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build step failed: " + " ".join(cmd),
              file=sys.stderr)
    return proc.returncode == 0


def build(root, build_dir):
    """Build the library and the benchmark; return the binary path or None."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        print("perfbench: no PanguLU source tree at " + root, file=sys.stderr)
        return None
    lib_dir = os.path.join(build_dir, "lib")
    bench_dir = os.path.join(build_dir, "perfbench")
    here = os.path.dirname(os.path.abspath(__file__))
    steps = []
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", lib_dir])
    steps.append(["cmake", "--build", lib_dir, "-j", JOBS, "--target"] +
                 LIBRARY_TARGETS)
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", bench_dir,
                      "-DPANGULU_SOURCE_DIR=" + root,
                      "-DPANGULU_BUILD_DIR=" + lib_dir])
    steps.append(["cmake", "--build", bench_dir, "-j", JOBS])
    for cmd in steps:
        if not run_build_step(cmd):
            return None
    return os.path.join(bench_dir, "perfbench")


def main():
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
