#!/usr/bin/env python3
"""Build `netrel-serve` and the benchmark harness, then make one benchmark run.

Run from the root of the repository:

    python3 perfbench/run.py --workload road-warm --seed 1 --seconds 20 --trace 0

Both binaries are built in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`): `netrel-serve` from the repository workspace, exactly as
shipped, and the harness from its own workspace in `perfbench/`. Build
output goes to stderr, so the last line on stdout is the run's JSON result.
See `perfbench/README.md`.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print(
            "perfbench: run from the repository root (Cargo.toml and crates/ not found)",
            file=sys.stderr,
        )
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "netrel-bench", "--bin", "netrel-serve"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "netrel-perfbench")
    serve = os.path.join(release, "netrel-serve")
    sys.stdout.flush()
    os.execv(harness, [harness, "--serve", serve, *sys.argv[1:]])
    return 1  # unreachable: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
