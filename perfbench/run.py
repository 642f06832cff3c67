#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Without --workload, every workload named in BENCHMARK.json runs in turn,
each in its own process. The build goes to $CARGO_TARGET_DIR, or to
.bench_build at the root when that is unset. Build output goes to standard
error; the standard output is the benchmark's own, ending with its JSON
result line.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    if "--workload" in argv:
        return subprocess.run([binary] + argv).returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in workloads:
        sys.stdout.flush()
        status |= subprocess.run([binary, "--workload", name] + argv).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
