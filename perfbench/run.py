#!/usr/bin/env python3
"""Builds and runs the end-to-end Chiaroscuro benchmark on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` cargo package (release, offline, locked) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload in a child
process so that its peak RSS is its own, and prints provenance, a metric
table and, as the last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (for checkouts that
    are not git repositories)."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    in_git = os.path.isdir(os.path.join(ROOT, ".git"))
    return {
        "git_revision": in_git and command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "nproc": os.cpu_count(),
    }


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        log(f"run failed with exit code {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run printed no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"result has keys {sorted(result)}")
        return 1
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
