#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <service_churn|giant_ring|durable_churn> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); cargo's output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Traces and the durable
workload's scratch files are written under .bench_build/perfbench-out.
Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=900,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    out_dir = ROOT / ".bench_build" / "perfbench-out"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--out-dir", str(out_dir)],
        cwd=ROOT,
        env=env,
        timeout=170,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
