#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built from source (release profile) into
$CARGO_TARGET_DIR, default `.bench_build`. Its standard output is passed
through once its last line has been checked against BENCHMARK.json: the
result object must name exactly the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). A failed build or an invalid result exits
non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# Work the binary may do after its own measuring time ends (set-up, output
# checks, the traced replay) stays well inside this limit.
RUN_TIMEOUT_S = 170
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev(root):
    """HEAD of the checkout, only when the checkout is itself a git work tree."""
    top = command_output(["git", "-C", root, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return "unavailable (not a git checkout)"
    return command_output(["git", "-C", root, "rev-parse", "HEAD"]) or "unavailable"


def source_digest(root):
    """SHA-256 over the paths and contents of every source file built."""
    h = hashlib.sha256()
    files = []
    for entry in SOURCE_ROOTS:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(entry)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = {m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unavailable"
    env["PERFBENCH_GIT_REV"] = git_rev(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("the last line of the benchmark output is not a JSON object")
    names = set(result.get("metrics", {}))
    if set(result) != {"correct", "attempted", "failed", "metrics"} or names != expected:
        sys.stderr.write(run.stdout)
        fail(f"result metrics differ from BENCHMARK.json: missing {sorted(expected - names)}, "
             f"unexpected {sorted(names - expected)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
