#!/usr/bin/env python3
"""Build and run the compile-and-serve benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-par --seed 1 --seconds 15 --trace 0

Builds perfbench/bench.exe with dune (inside the checkout's _build) and
runs it. The benchmark prints progress on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when that line was printed.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("compile-par", "compile-seq", "serve-hit")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if not key.startswith("--"):
            fail("unexpected argument %r" % key)
        try:
            opts[key[2:]] = next(it)
        except StopIteration:
            fail("%s needs a value" % key)
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail("missing --%s" % key)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %r (known: %s)" % (opts["workload"], ", ".join(WORKLOADS)))
    if opts["trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    for key in ("seed", "seconds"):
        if not opts[key].lstrip("-").isdigit():
            fail("--%s takes an integer" % key)
    return opts


def main():
    opts = parse_args(sys.argv[1:])
    # The program under test is built from this checkout's sources.
    for path in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository (%s is missing)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run(
        [EXE, "--workload", opts["workload"], "--seed", opts["seed"],
         "--seconds", opts["seconds"], "--trace", opts["trace"]],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with status %d" % run.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
