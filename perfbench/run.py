#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload refresh_dag --seed 1 --seconds 20 --trace 0

The Go module in perfbench/ is built from source into .bench_build/ (the
Go build cache lives there too), then the binary runs with the given
arguments and writes spans and full results under .bench_out/. The last
line of standard output is the run's JSON result. The exit code is the
benchmark's: non-zero when the build fails, a run cannot finish, or any
operation or output check fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    run = subprocess.run([BINARY, "--out", os.path.join(ROOT, ".bench_out")] + sys.argv[1:],
                         cwd=ROOT, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
