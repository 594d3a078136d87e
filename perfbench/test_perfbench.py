#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py            # every workload, ~8 min
    python3 perfbench/test_perfbench.py many-small # the named workloads only

It checks four things:
  * every run prints exactly the metrics BENCHMARK.json names for its
    mode, with the units it gives;
  * the exact metrics (rounds, messages, total_bits, certified_ratio,
    fault.*, protocol.phases, core.*.rounds) are identical across two
    runs with one seed, untraced and traced, and the traced run writes a
    Chrome trace with a span around each layer call;
  * a held-out seed, used nowhere else, runs clean: every request
    certified, exit code 0;
  * the command line rejects an unknown workload and a malformed or
    negative seed or length with a message and exit code 2, before any
    result is printed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["scale-clean", "many-small", "reliable-lossy"]
EXACT_E2E = ["rounds", "messages", "total_bits", "certified_ratio"]
SEED = "11"
HELD_OUT_SEED = "90210"
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)


def result(workload, seed, trace):
    proc = run("--workload", workload, "--seed", seed, "--seconds", "1",
               "--trace", trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %s trace %s exited %d:\n%s" %
                             (workload, seed, trace, proc.returncode,
                              proc.stderr[-4000:]))
    out = json.loads(lines[-1])
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != units:
        raise AssertionError("%s trace %s metrics differ from BENCHMARK.json: "
                             "%s" % (workload, trace,
                                     set(got.items()) ^ set(units.items())))
    return out


def exact_layer_metrics(metrics):
    return {k: v for k, v in metrics.items()
            if k.startswith("fault.") and k != "fault.decorator_ratio"
            or k == "protocol.phases"
            or k.startswith("core.") and k.endswith(".rounds")}


class CommandLine(unittest.TestCase):
    BAD = [
        ["--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "abc", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "-5", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "1.5", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "99999999999999999999999",
         "--seconds", "1", "--trace", "0"],
        ["--workload", "many-small", "--seed", "1", "--seconds", "-3",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "1", "--seconds", "ten",
         "--trace", "0"],
        ["--workload", "many-small", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "many-small", "--seed", "1", "--seconds", "1",
         "--bogus", "0"],
        ["--workload", "many-small", "--seed"],
        ["--seed", "1", "--seconds", "1", "--trace", "0"],
    ]

    def test_bad_arguments_exit_2_with_a_message(self):
        for args in self.BAD:
            with self.subTest(args=args):
                proc = run(*args)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("perfbench: ", proc.stderr)
                self.assertNotIn("{", proc.stdout)


class Determinism(unittest.TestCase):
    def check_workload(self, workload):
        first = result(workload, SEED, "0")
        second = result(workload, SEED, "0")
        for r in (first, second):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        for name in EXACT_E2E:
            self.assertEqual(first["metrics"][name], second["metrics"][name],
                             name)

        traced = [result(workload, SEED, "1") for _ in range(2)]
        exact = [exact_layer_metrics(r["metrics"]) for r in traced]
        self.assertGreater(len(exact[0]), 0)
        self.assertEqual(exact[0], exact[1])
        for r in traced:
            self.assertTrue(r["correct"])
        trace = os.path.join(ROOT, ".bench_build",
                             "trace-%s-%s.json" % (workload, SEED))
        with open(trace) as f:
            spans = {e["name"] for e in json.load(f)["traceEvents"]}
        self.assertEqual(spans, {"setup", "build", "construct", "request",
                                 "solve", "certify", "probe"})

        held_out = result(workload, HELD_OUT_SEED, "0")
        self.assertTrue(held_out["correct"])
        self.assertEqual(held_out["failed"], 0)
        self.assertEqual(held_out["metrics"]["certified_frac"]["value"], 1)


def add_workload_tests():
    for workload in WORKLOADS:
        name = "test_" + workload.replace("-", "_")
        setattr(Determinism, name,
                lambda self, w=workload: self.check_workload(w))


if __name__ == "__main__":
    selected = [a for a in sys.argv[1:] if a in WORKLOADS]
    if selected:
        WORKLOADS[:] = selected
        sys.argv = [a for a in sys.argv if a not in selected]
    add_workload_tests()
    unittest.main()
