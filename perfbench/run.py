#!/usr/bin/env python3
"""Entry point of the repo benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune into the directory named by CARGO_TARGET_DIR (default .bench_build),
with dune's shared cache off and TMPDIR inside that directory so that
nothing is written outside the checkout, then runs it with the same
arguments and exits with its status.  Build output goes to stderr; the
benchmark's stdout ends with one JSON line.  Outside a checkout (no
dune-project or lib/) it exits 2 without building.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.stderr.write("perfbench: run from the root of a conrat checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(os.path.abspath(build_dir), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
