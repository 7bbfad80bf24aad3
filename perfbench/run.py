#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program in perfbench/ is built into .bench_build/ (with its build
cache there too, so nothing is written outside the checkout) and run with
the given arguments; its standard output, whose last line is the JSON
result, is passed through. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOENV": "off",
    })
    return env


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
                           stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=170)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
