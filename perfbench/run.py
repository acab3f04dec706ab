#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload steady_region --seed 1 --seconds 10 --trace 0

Builds the OCaml harness (perfbench/perfbench.ml) with dune, runs one
workload, and passes its output through.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails, when an output check or the
determinism gate fails, or when the repository sources are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["steady_region", "interp_only", "cold_start", "mix_shift"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# A run measures for --seconds and then serves the reference engine; the
# first build of a checkout compiles the whole engine.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project or lib/ not found; run from the "
              "repository root", file=sys.stderr)
        return 2

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
