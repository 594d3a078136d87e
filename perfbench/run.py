#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is configured and built (Release) under .bench_build/perfbench
on first use; later runs only rebuild what changed. Build output goes to
stderr so that the program's JSON result stays the last line of stdout.
A traced run (--trace 1) also writes its spans as a Chrome trace to
.bench_build/trace-<workload>-<seed>.json. The exit code is the program's:
0 when every request is certified, 1 on a failed request or error, 2 on a
bad command line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def trace_out(args):
    """The Chrome-trace path for a traced run, or None."""
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") != "1" or "--trace-out" in opts:
        return None
    name = "trace-%s-%s.json" % (opts.get("--workload", "none"),
                                 opts.get("--seed", "0"))
    return os.path.join(ROOT, ".bench_build", name)


def main():
    args = sys.argv[1:]
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    out = trace_out(args)
    if out:
        args += ["--trace-out", out]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
