#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root. Builds perfbench/ (a Cargo package of its
own that uses the repository's crates by path) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs it. With --trace 0 it first
starts the program SETUP_PROCESSES times to time set-up, each time in a
fresh process, and reports their median as setup_s. The last line of
output is the JSON result. Exits non-zero, without a result, if the build
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROCESSES = 9
DEADLINE_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, deadline, **kw):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        return subprocess.run(cmd, timeout=left, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # A first build may take several minutes; it has its own deadline.
    built = run(build, time.monotonic() + 900, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    deadline = time.monotonic() + DEADLINE_S

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            out = run([binary, "setup", *base], deadline, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                fail("set-up process failed")
            setups.append(float(out.stdout.strip().splitlines()[-1]))

    cmd = [binary, "run", *base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = run(cmd, deadline, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    lines = out.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if out.returncode != 0 or not lines:
        print(lines[-1] if lines else "")
        fail(f"benchmark program exited with {out.returncode}")
    result = json.loads(lines[-1])
    if setups:
        # Every sample from a fresh process; the measuring process's own
        # set-up ran after the host calibration, so it is left out.
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s samples (fresh processes): {' '.join(f'{s:.4f}' for s in setups)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
