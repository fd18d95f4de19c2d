#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then replaces this process with the benchmark
binary. The binary prints a human-readable report and, as its last line,
one JSON result object. Cargo's output goes to stderr.

Workloads: sweep-saturated, paper-classes, scenario-library,
design-search. See BENCHMARK.json for why each exists.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# What the benchmark needs from the repository besides its own files.
REQUIRED = ("Cargo.toml", "Cargo.lock", "crates", "scenarios")


def source_digest():
    """A digest of the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "scenarios", os.path.relpath(HERE)):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return source_digest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(
            f"run.py: run from the repository root; missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    exe = os.path.join(target, "release", "perfbench")
    argv = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(target, "perfbench"),
        "--rustc", rustc or "unknown",
        "--commit", commit(),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, argv)


if __name__ == "__main__":
    sys.exit(main())
