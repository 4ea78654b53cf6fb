#!/usr/bin/env python3
"""Build the wall-clock benchmark from source, then run one workload.

    python3 wallbench/run.py --workload fill --seed 1 --seconds 10 --trace 0
    python3 wallbench/run.py --selftest

Run from the repository root. The engine and the benchmark are built
with CMake (Release) into $CARGO_TARGET_DIR/wallbench, or
.bench_build/wallbench when that variable is unset. Build output goes to
stderr; stdout carries only the benchmark's own lines, the last of which
is the JSON result. See wallbench/README.md for the workloads and
metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up-only processes started before an untraced run; setup_s is the
# median of their set-up times and the run's own, each counted from
# process start. All of them together stay within 170 s.
EXTRA_SETUPS = 4
SETUP_TIMEOUT_S = 5
RUN_TIMEOUT_S = 150


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "wallbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found at %s/src" % ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "wallbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["fill", "tune"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        cmd = ["--selftest"]
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    elif args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    else:
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source_id()]
    build_dir = build()
    if args.trace == 1:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    binary = os.path.join(build_dir, "wallbench")
    if args.selftest:
        return run(binary, cmd, RUN_TIMEOUT_S)[0]
    if args.trace == 0:
        samples = [setup_seconds(binary, cmd) for _ in range(EXTRA_SETUPS)]
        cmd += ["--setup-samples", ",".join(samples)]
    return run(binary, cmd + start_stamp(), RUN_TIMEOUT_S)[0]


def start_stamp():
    """The --start-ns flag: now on CLOCK_MONOTONIC, which the binary reads too."""
    return ["--start-ns", str(time.monotonic_ns())]


def run(binary, cmd, timeout, capture=False):
    """Runs the benchmark binary; returns its exit code and captured stdout."""
    proc = subprocess.Popen([binary] + cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % timeout)
    return proc.returncode, out


def setup_seconds(binary, cmd):
    """One set-up in a fresh process; returns its seconds as printed."""
    code, out = run(binary, cmd + ["--setup-only"] + start_stamp(),
                    SETUP_TIMEOUT_S, capture=True)
    if code != 0:
        fail("set-up-only run failed with code %d" % code)
    return "%r" % json.loads(out.strip().splitlines()[-1])["setup_s"]


if __name__ == "__main__":
    sys.exit(main())
