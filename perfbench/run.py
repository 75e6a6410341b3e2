#!/usr/bin/env python3
"""Builds and runs the streamfreq repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <node_mixed|cluster_e2e> \
        --seed N --seconds S --trace <0|1>

It builds the `streamfreq` binary and the benchmark from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload. The
benchmark's last stdout line is the JSON result. Build failures, failed
correctness checks and overruns exit non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "streamfreq-cli", "--bin", "streamfreq"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no streamfreq sources next to the benchmark", file=sys.stderr)
        return 1
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--streamfreq", os.path.join(release, "streamfreq"),
           "--work-dir", os.path.join(ROOT, ".bench_run")]
    env = dict(os.environ, PERFBENCH_REV=git_rev())
    # A session of its own, so an overrun can stop the benchmark and
    # every node it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        # Sweep anything the benchmark left behind in its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
