#!/usr/bin/env python3
"""Builds the DynaMast benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload ycsb_skew_cpu --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The harness is configured and built with
CMake under $CARGO_TARGET_DIR (default .bench_build) on the first run; later
runs only re-check the build. The harness output passes through unchanged:
its last stdout line is the JSON result. The exit code is the harness's
(non-zero when the correctness gate fails), or 2 when the build fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ycsb_skew_cpu", "ycsb_uniform_modeled", "tpcc_cpu")
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = HERE.parent / base
    return base / "perfbench"


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                f.close()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed: {' '.join(cmd)}\n")
                sys.exit(2)
    return out / "perfbench"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Test hook: the harness drops one YCSB increment, which the
    # conservation check must catch.
    p.add_argument("--inject-lost-update", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds within 1..60")

    if not (HERE.parent / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("run.py: no DynaMast sources next to perfbench/\n")
        return 2
    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_lost_update:
        cmd.append("--inject-lost-update")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: harness exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
