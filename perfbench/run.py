#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The OCaml program
(perfbench/xqbench.ml) is built with dune into _build/ and run in the
foreground; its standard output passes through unchanged, so the last
line is the result object. The build's own output goes to stderr. Exits
non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "xqbench.exe")


def main() -> int:
    if not os.path.isfile("dune-project"):
        print("run.py: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/xqbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
