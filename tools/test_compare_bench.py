#!/usr/bin/env python3
"""Self-test of compare_bench.py on synthetic schema-v8 rows.

Each case writes a baseline and a fresh file to a temporary directory,
runs the gate on them and checks its exit code (and, for a counter
mismatch, that the diff table is printed). Stdlib only.

Usage: test_compare_bench.py   (exit 0 = every case passed)
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_bench.py")


def row(instance, threads=1, seconds=0.01):
    """One well-formed v8 row; callers mutate copies of it."""
    return {
        "schema_version": 8, "instance": instance, "family": "forest2",
        "n": 1000, "m": 1999, "solver": "det", "threads": threads,
        "seed": 1, "fault": "none", "seconds": seconds, "repeats": 5,
        "rounds": 10, "messages": 4460, "total_bits": 19789,
        "set_size": 407, "weight": 407, "dropped": 0, "duplicated": 0,
        "delayed": 0, "killed": 0, "hit_round_limit": False,
        "repair_rounds": 0, "repaired_nodes": 0, "post_repair_weight": 0,
        "compute_seconds": seconds * 0.9, "flip_seconds": 0.0,
        "retransmit_seconds": 0.0, "other_seconds": seconds * 0.1,
        "identical": True, "failed": False, "last_rounds": [],
    }


def suite(count=12):
    return [row(f"inst{i}") for i in range(count)]


def run_gate(tmp, baseline, fresh):
    paths = []
    for name, rows in (("baseline.json", baseline), ("fresh.json", fresh)):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(rows, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, GATE] + paths,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def changed(rows, index, **fields):
    rows = copy.deepcopy(rows)
    rows[index].update(fields)
    return rows


def cases():
    base = suite()
    slower = copy.deepcopy(base)
    slower[3]["seconds"] *= 1.3
    mildly_slower = copy.deepcopy(base)
    mildly_slower[3]["seconds"] *= 1.15
    # The exp12 smoke preset's shape: six rows (three solvers x widths 1
    # and 4). One row getting 30% faster moves the machine factor, but
    # must not push any other row past the gate.
    smoke = suite(6)
    one_faster = copy.deepcopy(smoke)
    one_faster[4]["seconds"] *= 0.7
    return [
        ("file compared with itself", base, base, 0, None),
        ("one changed counter", base, changed(base, 2, messages=4461), 1,
         "<-- MISMATCH"),
        ("changed fault counter", base, changed(base, 5, dropped=1), 1,
         "counter diff for"),
        ("determinism verdict false", base,
         changed(base, 0, identical=False), 1, "determinism verdict"),
        ("one row 30% slower among several", base, slower, 1, "REGRESSION"),
        ("one row 15% slower stays within the gate", base, mildly_slower, 0,
         None),
        ("one row 30% faster among six flags no other row", smoke,
         one_faster, 0, None),
        ("missing baseline row", base, base[:-1], 2, "missing baseline rows"),
        ("duplicate key", base + [row("inst0")], base + [row("inst0")], 2,
         "duplicate row keys"),
        ("pre-v8 baseline row", changed(base, 1, schema_version=7), base, 2,
         "only v8"),
        ("pre-v8 fresh row", base, changed(base, 1, schema_version=7), 2,
         "only v8"),
    ]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, baseline, fresh, want, needle in cases():
            code, out = run_gate(tmp, baseline, fresh)
            ok = code == want and (needle is None or needle in out)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code} "
                  f"(want {want})")
            if not ok:
                failures += 1
                print(out)
    if failures:
        print(f"{failures} case(s) failed")
        return 1
    print("all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
