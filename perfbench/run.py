#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` and `simfarm`
binaries in release mode (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the workload. Its last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without a
result line, if the build fails; exits 1 if any simulated result was wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dense_pipeline", "memory_bound", "wide_machine", "farm_sweep"]


def build(target_dir):
    """Builds both binaries; returns (perfbench, simfarm) paths or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for extra in ([], ["-p", "simfarm", "--bin", "simfarm"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "simfarm")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(target_dir)
    if bins is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    perfbench, simfarm = bins
    scratch = os.path.join(target_dir, "perfbench-scratch", str(os.getpid()))
    try:
        return subprocess.run([
            perfbench, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--simfarm", simfarm, "--scratch", scratch,
        ]).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
