#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload generate|sweep|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds pipebench (library sources plus the
benchmark, Release) under $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that is unset; later runs rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_fingerprint():
    """The commit when the tree is a git checkout, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return "src-" + h.hexdigest()[:12]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["generate", "sweep", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "machine.h")):
        print("pipebench: library sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "pipebench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("pipebench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "run"),
           "--digest-file", os.path.join(HERE, "expected_digest.json"),
           "--commit", source_fingerprint()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
