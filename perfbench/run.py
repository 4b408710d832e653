#!/usr/bin/env python3
"""Build and run serialgraph's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank-plock --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own in perfbench/ that uses the repository
as its dependency. It is compiled from source into .bench_build/ at the root,
with the Go build cache and every temporary file (including message spill
files) kept there too. All arguments are passed to the benchmark program; see
perfbench/main.go for them. Build output goes to standard error, so standard
output ends with the benchmark's JSON result line.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", exe, "."],
        cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bench = os.path.join(root, "BENCHMARK.json")
    return subprocess.run([exe, "--bench", bench] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
