#!/usr/bin/env python3
"""Builds and runs the PStorM submission benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (and the PStorM libraries it links) under .bench_build/; later
calls rebuild only what changed. The benchmark's last stdout line is its JSON
result. --self-test feeds each correctness check a wrong expectation and
fails unless every such run exits non-zero (see README.md).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "build.log")
# One benchmark run ends well inside this; a run that does not is killed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_logged(cmd):
    with open(BUILD_LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=BUILD_TIMEOUT_S).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; run it from "
                         "a PStorM checkout\n")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs]) == 0


def run_bench(args, capture=False):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY] + args + ["--out", OUT_DIR]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.DEVNULL if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None


# (workload, trace, injected wrong expectation). Each run must fail.
SELF_TEST_CASES = [
    ("sd_serving", "0", "swap_expected_keys"),
    ("sd_serving", "0", "default_predict_halved"),
    ("sd_serving", "0", "default_runtime_tuned"),
    ("sd_serving", "1", "pipeline_seed"),
    ("rpc_ingest", "0", "replay_seed"),
    ("rpc_ingest", "0", "drop_acked_put"),
    ("rpc_ingest", "0", "default_runtime_tuned"),
    ("rpc_ingest", "1", "pipeline_seed"),
]


def self_test():
    ok = True
    for workload in ("sd_serving", "rpc_ingest"):
        for trace in ("0", "1"):
            done = run_bench(["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", trace],
                             capture=True)
            passed = done is not None and done.returncode == 0
            print("%-4s clean      %-12s trace=%s" %
                  ("ok" if passed else "FAIL", workload, trace))
            ok = ok and passed
    for workload, trace, inject in SELF_TEST_CASES:
        done = run_bench(["--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", trace,
                          "--inject", inject], capture=True)
        caught = (done is not None and done.returncode != 0 and
                  '"correct": false' in done.stdout)
        print("%-4s injected   %-12s trace=%s %s" %
              ("ok" if caught else "FAIL", workload, trace, inject))
        ok = ok and caught
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if not build():
        if os.path.isfile(BUILD_LOG):
            sys.stderr.write("perfbench: build failed; see %s\n" % BUILD_LOG)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    done = run_bench(sys.argv[1:])
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
