#!/usr/bin/env python3
"""Builds and runs the end-to-end continuous-query benchmark.

Usage (from the repository root):
  python3 cqbench/run.py --workload cacq_inline --seed 1 --seconds 30 --trace 0
  python3 cqbench/run.py --selftest

The first call configures and builds the engine and the benchmark into
.bench_build/cqbench (or $CARGO_TARGET_DIR/cqbench when set); later calls
rebuild only what changed. The benchmark's stdout is passed through: its
last line is the JSON result. Exits non-zero, printing no result, when the
engine sources or the toolchain are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cqbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "server.h")):
        sys.stderr.write("cqbench: engine sources not found under %s/src\n"
                         % ROOT)
        return False
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied along with a checkout belongs to another
        # source directory; CMake refuses to reuse it.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write("cqbench: %s: %s\n" % (cmd[0], e))
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("cqbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main(argv):
    if argv[1:2] == ["--selftest"]:
        if not build(["cqbench_selftest"]):
            return 1
        return subprocess.call([os.path.join(build_dir(), "cqbench_selftest")]
                               + argv[2:])
    if not build(["cqbench"]):
        return 1
    # Spans go beside the build tree; a --spans-dir given here overrides.
    spans = os.path.join(os.path.dirname(build_dir()), "cqbench-spans")
    cmd = [os.path.join(build_dir(), "cqbench"), "--spans-dir", spans] \
        + argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("cqbench: run timed out\n")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
