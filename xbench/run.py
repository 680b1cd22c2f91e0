#!/usr/bin/env python3
"""Builds and runs the xplain benchmark (see xbench/README.md).

Run from the repository root:

  python3 xbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                        [--out RESULTS.jsonl]

The first run configures and builds the library and the xbench program
under .bench_build/xbench (RelWithDebInfo, like the repository's default
build); later runs only rebuild what changed. The program's report is
printed as is: the run's parameters, every metric with its unit and sample
count, and as the last line one JSON object with the keys correct,
attempted, failed and metrics. With --out, the result and the run's
parameters are also appended as one JSON line to RESULTS.jsonl, the input
format of xbench/compare.py.

Exit status: 0 on a correct run, 3 when the correctness gate failed, and
another nonzero status, with no result printed, when the build or set-up
failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "xbench")


def source_digest():
    """Short SHA-256 over every file under src/, so a result names the code
    it measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build():
    """Configures (once) and builds xbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        print("xbench: no xplain sources under src/ at " + ROOT,
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "xbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the report.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("xbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "xbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    commit = "git." + git_commit() + "+src." + source_digest()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        # Set-up or usage error: show what xbench said, print no result.
        sys.stderr.write(done.stdout)
        return done.returncode or 2
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "commit": commit, "report": lines[:-1], "result": result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
