#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload hop_plain --seed 42 --seconds 20 --trace 0

The arguments go to the OCaml benchmark unchanged (see perfbench/README.md).
Its last output line is the JSON result; the exit code is 0 only when the
build succeeded and every correctness check passed.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/main.exe"


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)", file=sys.stderr)
        return 2
    # The shared dune cache lives in the home directory; the benchmark
    # reads and writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
