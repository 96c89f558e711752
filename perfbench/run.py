#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload paper-f4 --seed 1 --seconds 10 --trace 0

Builds the repo's libraries, tapacs-serve and the perfbench binary into
.bench_build/perfbench (RelWithDebInfo, the top-level default), then runs
the workload in a clean environment: inherited TAPACS_* overrides are
dropped, the thread pool is pinned to the usable core count, and the
cache and journal live in a fresh directory under .bench_build that is
removed afterwards. The last stdout line is the result JSON; every line
before it is human-readable (provenance, iteration counts, failures).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("paper-f4", "edit-sweep", "serve-burst", "cluster-l1")
RUN_TIMEOUT_S = 170


def cores():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(cores()),
                  "--target", "perfbench", "tapacs-serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def provenance(args):
    """Git revision (when this is a git checkout), a digest of the built
    sources, core count and build type."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("tools", "tapacs_serve.cc")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()[:16],
            "cores": cores(), "build_type": BUILD_TYPE,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and set(result["metrics"]) == expected_metrics(trace))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(provenance(args)), flush=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("TAPACS_")}
    env["TAPACS_THREADS"] = str(cores())
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD_DIR))
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp,
           "--serve-exe", os.path.join(BUILD_DIR, "tapacs-serve")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            os.path.dirname(BUILD_DIR),
            "trace-%s-%d.json" % (args.workload, args.seed))]
    # Own process group, so a timeout can stop perfbench and its workers.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: timed out", file=sys.stderr)
        return 1
    finally:
        # Stop anything the run left behind (fleet workers of a crashed
        # perfbench) before removing its temporary directory.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1], args.trace):
        sys.stderr.write(out)
        print("perfbench: exit %d, no valid result" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
