#!/usr/bin/env python3
"""Builds the engine and the load generator, then runs one benchmark workload.

    python3 perfbench/run.py --workload ingest|history_scan|chatter \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build lands in $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; the first run configures and compiles, later
runs only check that the build is up to date. The last line of stdout is the
result JSON printed by tsbench (see perfbench/README.md).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log_tail(path, lines=40):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build(build_dir):
    """Configures (once) and builds the three targets; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "tempspec_serve", "tsbench", "gen_test"])
    with open(log, "a", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write("perfbench: build failed:\n" + log_tail(log))
                return False
    return True


def generator_test(build_dir):
    """Runs the generator determinism test once per build of it."""
    binary = os.path.join(build_dir, "gen_test")
    stamp = binary + ".passed"
    if (os.path.exists(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return True
    result = subprocess.run([binary], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(result.stdout)
    if result.returncode != 0:
        sys.stderr.write("perfbench: generator determinism test failed\n")
        return False
    with open(stamp, "w", encoding="utf-8") as f:
        f.write("ok\n")
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "history_scan", "chatter"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir) or not generator_test(build_dir):
        return 1

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    command = [os.path.join(build_dir, "tsbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve", os.path.join(build_dir, "tempspec_serve"),
               "--spans", os.path.join(build_dir,
                                       "spans-%s.jsonl" % args.workload),
               "--work-dir", work_dir]
    # Own session, so a timeout takes the spawned daemon down with tsbench.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
