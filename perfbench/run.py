#!/usr/bin/env python3
"""The serving benchmark's entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds hmd_serve, hmd_train and the perfbench binary from the checkout's
sources (into $CARGO_TARGET_DIR, default .bench_build, under perfbench/),
trains the fixture artifacts once per build directory, then runs one
measurement. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/README.md). Exits non-zero, printing no result, on any failure.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("small_open", "deep_bulk", "fleet_churn")
FIXTURE_VERSION = "1"
TIME_LIMIT_S = 170.0

# Fixture artifacts: (output stem, hmd_train arguments). Trained once per
# build directory with fixed seeds; --seed only changes the traffic.
FIXTURES = [
    ("dvfs_rf", ["--dataset=dvfs", "--model=rf", "--fleet=40"]),
    ("dvfs_lr", ["--dataset=dvfs", "--model=lr", "--fleet=40"]),
    ("dvfs_svm", ["--dataset=dvfs", "--model=svm", "--fleet=40"]),
    ("hpc_rf", ["--dataset=hpc", "--model=rf", "--scale=0.1"]),
    ("hpc_lr", ["--dataset=hpc", "--model=lr", "--scale=0.1"]),
    ("hpc_svm", ["--dataset=hpc", "--model=svm", "--scale=0.1"]),
    # Mid-size deep forests the auto JIT policy compiles; two versions
    # (different training data) for the hot-swap publisher.
    ("mid_a", ["--dataset=hpc", "--model=rf", "--scale=0.02", "--fleet=24"]),
    ("mid_b", ["--dataset=hpc", "--model=rf", "--scale=0.02", "--seed=14"]),
]


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(source_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "perfbench", "hmd_serve", "hmd_train"],
                   check=True, stdout=sys.stderr)


def make_fixtures(build_dir):
    fixtures = build_dir / "fixtures"
    if (fixtures / f"READY-{FIXTURE_VERSION}").exists():
        return fixtures
    staging = build_dir / "fixtures.staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    train = str((build_dir / "hmd" / "hmd_train").resolve())
    for stem, extra in FIXTURES:
        args = [train, "--threads=2", f"--out={stem}.hmdf"] + extra
        if any(a.startswith("--fleet=") for a in extra):
            args += ["--fleet-dir=fleet", "--fleet-copy"]
        subprocess.run(args, check=True, cwd=staging, stdout=sys.stderr)
    (staging / f"READY-{FIXTURE_VERSION}").write_text("ok\n")
    shutil.rmtree(fixtures, ignore_errors=True)
    staging.rename(fixtures)
    return fixtures


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-corrupt", type=int, default=0,
                        help="test hook: corrupt the n-th response")
    parser.add_argument("--plant-stall-ms", type=float, default=0.0,
                        help="test hook: stall the generator once")
    args = parser.parse_args()

    source_dir = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target / "perfbench").resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build(source_dir, build_dir)
        fixtures = make_fixtures(build_dir)
    work = build_dir / "work"
    work.mkdir(exist_ok=True)

    command = [str(build_dir / "perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--fixtures={fixtures}",
               f"--serve={build_dir / 'hmd' / 'hmd_serve'}",
               f"--work={work}"]
    if args.plant_corrupt:
        command.append(f"--plant-corrupt={args.plant_corrupt}")
    if args.plant_stall_ms:
        command.append(f"--plant-stall-ms={args.plant_stall_ms}")
    remaining = max(10.0, TIME_LIMIT_S - (time.monotonic() - started))
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=remaining)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        log(f"measurement failed (exit {result.returncode})")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        log(f"error: {error}")
        sys.exit(1)
