#!/usr/bin/env python3
"""Builds the performance ledger from source and runs one measurement.

    python3 ledger/run.py --workload table1_farm --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --selftest

Run from the root of a checkout. The first call configures and builds
the library, upa_served, upa_dispatch and upa_ledger under
.bench_build/ledger (Release); later calls only rebuild what changed.
Build output goes to stderr, so the last line on stdout is the ledger's
JSON result. Every process the run starts is in one process group,
which is killed and waited for before this script exits.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "ledger"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[ledger] {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    built = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
         "upa_ledger", "upa_served_tool", "upa_dispatch_tool"],
        stdout=sys.stderr, stderr=sys.stderr)
    return built.returncode == 0


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def stop_group(pgid):
    """Kills whatever is left of the run's process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    binary = BUILD / "upa_ledger"
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"]).returncode

    work_dir = ROOT / ".bench_build" / f"ledger-work-{os.getpid()}"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", str(BUILD),
        "--work-dir", str(work_dir),
        "--out-dir", str(ROOT / ".bench_build" / "ledger-out"),
        "--commit", source_id(),
    ]
    child = subprocess.Popen(command, start_new_session=True)
    try:
        status = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        status = 1
    finally:
        stop_group(child.pid)
        child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
