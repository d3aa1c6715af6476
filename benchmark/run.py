#!/usr/bin/env python3
"""Build droppkt_benchmark from this checkout, then run it.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --self-test

Run from anywhere; paths resolve against the checkout that holds this file.
The build goes to build-benchmark/ (configured once, rebuilt incrementally)
through benchmark/hook.cmake, so no tracked file changes. Build output goes
to stderr; the benchmark's stdout passes through unchanged, its last line
being the JSON result. Saved models and, with --trace 1, the span file
(build-benchmark/traces/<workload>.json, 50-70 MB, replaced by the next
traced run of that workload) stay under build-benchmark/.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "droppkt_benchmark")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no CMakeLists.txt at %s; the droppkt sources are "
                 "missing" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = any(os.path.isfile(os.path.join(BUILD, f))
                         for f in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_droppkt_INCLUDE=" +
                          os.path.join(ROOT, "benchmark", "hook.cmake")])
        steps.append(["cmake", "--build", BUILD, "-j4",
                      "--target", "droppkt_benchmark"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(cmd))


def option(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build()
    cmd = [BINARY] + args + ["--work-dir", BUILD]
    if option(args, "--trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s.json" % option(args, "--workload"))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
