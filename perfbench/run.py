#!/usr/bin/env python3
"""Build carbon-edge and the benchmark driver, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest|fleet|recover|figure|all \
        --seed N --seconds S --trace 0|1

Builds `carbon-edge` and `fig03` from the workspace and the `perfbench`
driver from this directory, all in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the driver. The
driver's stdout passes through unchanged: a metric table, a summary
line, and last the result line. The exit code is the driver's:
non-zero when an output fails its oracle or a build or run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("crates", "cli", "Cargo.toml")):
        print("perfbench: no carbon-edge workspace here to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "cne-cli", "--bin", "carbon-edge", "-p", "cne-bench", "--bin", "fig03"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last
        # stdout line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    driver = [os.path.join(release, "perfbench"), "--bin-dir", release] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(driver, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
