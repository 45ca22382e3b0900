#!/usr/bin/env python3
"""Build the lcmm CLI and the serve benchmark from source, then run it.

Run from the repository root:

    python3 servebench/run.py --workload serve-cold --seed 1 --seconds 30 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to stderr, so the benchmark's JSON result stays the last
line of stdout. Exits non-zero, without a result, when either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["-p", "lcmm-cli", "--manifest-path", os.path.join(root, "Cargo.toml")],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--offline", "--release", "--quiet", *args]
        try:
            built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"servebench: cannot run cargo: {e}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print(f"servebench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    bench = os.path.join(target, "release", "servebench")
    lcmm = os.path.join(target, "release", "lcmm")
    out = os.path.join(target, "servebench")
    run = subprocess.run([bench, *sys.argv[1:], "--lcmm", lcmm, "--out", out], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
