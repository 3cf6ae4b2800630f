#!/usr/bin/env python3
"""Benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload grid|bigsim|evolve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. Builds perfbench/ (and with it the
library sources in src/) into $CARGO_TARGET_DIR (default .bench_build) on
first use, then runs one measurement and prints its result as the last
stdout line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; setup_s is the median of SETUPS
independent cold set-ups (SETUPS - 1 set-up-only processes plus the
measured one). With --trace 1 they are the per-layer ones, and the span
trace is written to <build>/spans/<workload>-<seed>.json.

Every process works in a private directory under <build>/work that is
removed on exit, also after a failure; TMPDIR points there, so nothing
outside the checkout is read or written.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 3
WORKLOADS = ("grid", "bigsim", "evolve")
# All processes of one measurement must end well inside 180 s.
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, env, deadline):
    """Runs cmd in its own process group; kills the group at `deadline`."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def build(root, build_dir, target):
    """Configures and builds `target`; serialised by a lock file."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                            str(build_dir)], check=True,
                           stdout=sys.stderr)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                        "--target", target], check=True, stdout=sys.stderr)
    return build_dir / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checker self-test")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}; run from a full "
             "source checkout")
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = root / target_root
    build_dir = target_root / "perfbench"

    try:
        if args.self_test:
            test = build(root, build_dir, "perfbench_checks_test")
            sys.exit(subprocess.run([str(test)]).returncode)
        if args.workload is None:
            fail("--workload is required")
        binary = build(root, build_dir, "hyve_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    deadline = time.monotonic() + DEADLINE_S
    work = target_root / "work" / f"{os.getpid()}-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work))
    common = [str(binary), "--workload", args.workload, "--seed",
              str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS - 1):
                out = run_child(common + ["--trace", "0", "--setup-only",
                                          "--workdir", str(work / f"s{i}")],
                                env, deadline)
                setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        cmd = common + ["--trace", str(args.trace), "--workdir",
                        str(work / "run")]
        if args.trace:
            spans = target_root / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
        out = run_child(cmd, env, deadline).strip().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(out[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        out.insert(-1, "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    for line in out[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
