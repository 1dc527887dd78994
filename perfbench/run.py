#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fat8-trace --seed 1 --seconds 30 --trace 0

Run it from the repository root. The optimized build goes to
$CARGO_TARGET_DIR (default .bench_build); run files (daemon checkpoints,
spans of traced runs) go to its run/ subdirectory. Build output goes to
standard error, so the last line of standard output is the JSON result.
Further flags (--size tiny, --daemon-uninterrupted) are passed through.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "--parallel", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, *sys.argv[1:],
           "--fingerprints", os.path.join(HERE, "fingerprints.tsv"),
           "--scratch", os.path.join(build_dir, "run")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
