#!/usr/bin/env python3
"""Builds servebench from the checkout's sources and runs one measurement.

Run from the repository root:

    python3 servebench/run.py --workload read_crawl --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload write_mix --seed 1 --seconds 10 --trace 1
    python3 servebench/run.py --self-test

The build lives in $CARGO_TARGET_DIR/servebench (default .bench_build, taken
relative to the repository root) and is an optimised CMake build of the
benchmark package, which compiles the Joza libraries from src/. A traced run
writes its spans to <build>/traces/<workload>-seed<seed>.json (Chrome
trace-event format). Build output goes to stderr; the last stdout line is
the result JSON.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Joza sources at src/ next to the benchmark; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", build_dir, "--target", "servebench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "servebench")


def run(cmd, timeout):
    # Own process group, so a timeout also stops the PTI daemons the
    # benchmark forked; always waits for the whole group's leader.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s and was stopped" % timeout, 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "servebench")
    binary = build(build_dir)

    if args.self_test:
        sys.exit(run([binary, "--self-test"], None))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
