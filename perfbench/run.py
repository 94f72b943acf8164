#!/usr/bin/env python3
"""Paper-frame serving benchmark entry point.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload vbf_fp_paper --seed 1 --seconds 30 --trace 0

Builds the release `serve_agent` binary and the benchmark's own `perfbench`
crate from source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
`perfbench`, which drives `serve_agent` and prints the result line last on
stdout. Build output goes to stderr. Exits non-zero, printing no result, when
the directory is not a checkout of the repository or a build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "serve_agent"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), "--server", os.path.join(release, "serve_agent")]
    return subprocess.run(command + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
