#!/usr/bin/env python3
"""End-to-end record/replay benchmark for tsr.

Builds the tsr libraries and the benchmark driver from this checkout's
sources (once; later runs only re-check the build), then runs one
workload:

    python3 perfbench/run.py --workload httpd-rr --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and demos to
.bench_work/, which is removed again. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pbzip-rr", "httpd-rr", "litmus-explore", "httpd-fleet"]
RUN_TIMEOUT_S = 170
SHARDS = 8


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when there is one, plus a hash of the sources built."""
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"git:{commit} tree-sha256:{digest.hexdigest()[:16]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "Session.h")):
        die(f"tsr sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_shard(cmd, deadline):
    """Runs one driver process; returns (exit code, its stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die(f"{cmd[2]} exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    sid = source_id()
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{os.getpid()}")
    # End-to-end runs split their time over SHARDS processes, each with
    # its own seed derived from --seed, and report each metric's median
    # across them. Most run-to-run variation is per process or per input
    # set, so a median over processes and inputs is steadier than one long
    # process on one input. The per-layer run is one process (shard 0).
    shards = 1 if args.trace else SHARDS
    results = []
    try:
        for shard in range(shards):
            cmd = [binary, "--workload", args.workload,
                   "--seed", str(args.seed * SHARDS + shard),
                   "--seconds", repr(args.seconds / shards),
                   "--trace", str(args.trace), "--work-dir", work_dir,
                   "--source-id", sid]
            code, lines = run_shard(cmd, deadline)
            print("\n".join(f"[{shard}] {line}" for line in lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                die(f"shard {shard} exited {code} without a result")
            if code not in (0, 1):
                die(f"shard {shard} exited {code}")
            results.append(result)
    finally:
        shutil.rmtree(os.path.dirname(work_dir), ignore_errors=True)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    failed = sum(r["failed"] for r in results)
    combined = {"correct": failed == 0 and all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed, "metrics": metrics}
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
