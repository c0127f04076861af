#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune (build output goes to stderr),
then runs it with the given arguments. The benchmark's last line of
standard output is one JSON object with the run's result; the exit code
is the benchmark's. Exits with 2, printing no result, when the tree
holds no buildable repository or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: run from a repository checkout" % (needed, ROOT))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % build.returncode)
    sys.stdout.flush()
    bench = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
