#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark's own output passes through unchanged; its last line is
the JSON result.  Build messages go to standard error.  Exits non-zero,
printing no result, when the tree cannot be built (for example outside
a full checkout of the repository).
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg, code):
    sys.stderr.write("perfbench: %s\n" % msg)
    return code


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a full checkout (dune-project and lib/ not found)", 2)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        return fail("dune not found", 2)
    # keep the build inside the checkout: the shared dune cache is off,
    # and the compilers' temporary files go under .bench_build/
    tmp = os.path.join(os.getcwd(), ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        return fail("build timed out", 3)
    if build.returncode != 0:
        return fail("build failed", 3)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=175)
    except subprocess.TimeoutExpired:
        return fail("run timed out", 4)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
