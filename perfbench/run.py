#!/usr/bin/env python3
"""Build `omc` and the benchmark harness from source, then run the harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pde-serial --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-check

Both programs are built in release mode with `cargo --offline` into
$CARGO_TARGET_DIR (default `.bench_build`). Build output goes to standard
error; the harness's report goes to standard output and ends with one JSON
line. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def build(args):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile("Cargo.toml") or not os.path.isfile(manifest):
        print("perfbench: run from the root of a full checkout", file=sys.stderr)
        return 1
    if not build(["--bin", "omc"]) or not build(["--manifest-path", manifest]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    omc = os.path.join(release, "omc")
    sys.stdout.flush()
    proc = subprocess.run([harness, "--omc", omc, "--root", root] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
