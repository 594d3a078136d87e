#!/usr/bin/env python3
"""Compare a fresh exp12/exp13 scenario JSON against the checked-in baseline.

Usage: compare_bench.py BASELINE.json FRESH.json [--tolerance 0.25]
                        [--uniform-slack 2.0]

Both files must be scenario JSON of schema v8: a row with any other
`schema_version` is a usage error (exit 2), so every row carries every
column and every deterministic column is always compared. Rows are
matched on (instance, solver, threads, seed, fault). A duplicate key
within EITHER file is a usage error too (exit 2): a dict build would
silently keep only the last duplicate, so a baseline regenerated from a
multi-seed sweep could "pass" while comparing a fraction of its rows.

For every matched row:
  * the deterministic columns (n, m, rounds, messages, total_bits,
    set_size, weight, the fault counters dropped / duplicated / delayed /
    killed, failed, hit_round_limit and the self-healing columns
    repair_rounds / repaired_nodes / post_repair_weight) must be exactly
    equal — the simulator promises bit-identical results, so any drift is
    a correctness regression, not noise. A mismatch prints a per-field
    diff table (baseline vs fresh vs delta) so the failure is diagnosable
    from the CI log alone;
  * the `identical` determinism verdict must be true in the fresh run.

Rows only present in the fresh file (new instances, new fault levels)
are reported but do not fail the gate; rows only present in the baseline
do (exit 2) — the fresh run must cover everything the baseline pins.

Timing is judged robustly against runner-speed differences (the baseline
is regenerated on whatever machine last shifted the engine's numbers, CI
runs on another): each row's seconds ratio is normalized by the geometric
mean ratio over all rows (the "machine factor"), and a row fails when its
NORMALIZED ratio exceeds 1 + threshold — i.e. when it regressed relative
to the rest of the suite. A uniform slowdown hides from that check, so
the machine factor itself fails the gate only past --uniform-slack
(default 2.0x), generous enough for runner-class variance but not for a
catastrophic engine-wide regression. Rows a heavy fault level failed
(`failed` true on both sides) carry no meaningful seconds and are
excluded from the timing gate.

The timing-breakdown columns (`compute_seconds`, `flip_seconds`,
`retransmit_seconds`, `other_seconds`) are INFORMATIONAL ONLY: a
baseline/fresh/delta table is printed per column, but timing drift there
never fails the gate — only the median-seconds check above gates builds.

Exit code 0 = pass, 1 = regression / mismatch, 2 = usage, schema,
missing rows, or duplicate keys.
"""
import argparse
import json
import math
import sys

SCHEMA_VERSION = 8
KEY_FIELDS = ("instance", "solver", "threads", "seed", "fault")
COUNTERS = ("n", "m", "rounds", "messages", "total_bits", "set_size",
            "weight", "dropped", "duplicated", "delayed", "killed", "failed",
            "hit_round_limit", "repair_rounds", "repaired_nodes",
            "post_repair_weight")
# Wall-clock breakdown: printed, never gated — timing is noise across
# machines, and the per-row median gate already covers end-to-end
# regressions.
TIMING_COLUMNS = ("compute_seconds", "flip_seconds", "retransmit_seconds",
                  "other_seconds")


def build_index(rows, label):
    """{key: row}, or None after printing why: a row of another schema,
    a row missing a key or deterministic column, or a duplicate key."""
    stale = [r.get("schema_version") for r in rows
             if r.get("schema_version") != SCHEMA_VERSION]
    if stale:
        print(f"FAIL: {label} has {len(stale)} row(s) of schema "
              f"{sorted(set(map(str, stale)))}; only v{SCHEMA_VERSION} is "
              f"accepted (regenerate it with the current exp12_scaling)")
        return None
    index = {}
    duplicates = []
    for row in rows:
        missing = [f for f in KEY_FIELDS + COUNTERS + ("seconds",)
                   if f not in row]
        if missing:
            print(f"FAIL: a {label} row lacks column(s) "
                  f"{', '.join(missing)}")
            return None
        k = tuple(row[f] for f in KEY_FIELDS)
        if k in index:
            duplicates.append(k)
        index[k] = row
    if duplicates:
        print(f"FAIL: duplicate row keys in {label} "
              f"(key = {', '.join(KEY_FIELDS)}):")
        for k in sorted(set(duplicates)):
            print(f"  {k}")
        return None
    return index


def print_counter_diff(k, base, new):
    """One aligned row per counter so a mismatch reads as a table."""
    print(f"  counter diff for {k}:")
    print(f"    {'field':<18} {'baseline':>16} {'fresh':>16} {'delta':>12}")
    for field in COUNTERS:
        b, f = base.get(field), new.get(field)
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (b, f))
        delta = f"{f - b:+}" if numeric else ""
        marker = "" if b == f else "   <-- MISMATCH"
        print(f"    {field:<18} {b!r:>16} {f!r:>16} {delta:>12}{marker}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", "--threshold", type=float,
                        dest="tolerance", default=0.25,
                        help="allowed fractional per-row regression after "
                             "machine-speed normalization (default keeps "
                             "the 25%% gate; --threshold is a deprecated "
                             "alias)")
    parser.add_argument("--uniform-slack", type=float, default=2.0,
                        help="allowed uniform (machine-factor) slowdown")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_rows = json.load(f)
    with open(args.fresh) as f:
        fresh_rows = json.load(f)

    print(f"row key: ({', '.join(KEY_FIELDS)})")
    baseline = build_index(baseline_rows, "baseline")
    fresh = build_index(fresh_rows, "fresh run")
    if baseline is None or fresh is None:
        return 2

    missing = sorted(set(baseline) - set(fresh))
    if missing:
        print(f"FAIL: fresh run is missing baseline rows: {missing}")
        return 2
    fresh_only = sorted(set(fresh) - set(baseline))
    if fresh_only:
        print(f"note: {len(fresh_only)} fresh row(s) have no baseline "
              f"(unpinned, not compared): {fresh_only}")

    failures = 0
    ratios = {}
    for k, base in sorted(baseline.items()):
        new = fresh[k]
        mismatched = [f for f in COUNTERS if base.get(f) != new.get(f)]
        if mismatched:
            print(f"FAIL {k}: counters changed (must match exactly): "
                  f"{', '.join(mismatched)}")
            print_counter_diff(k, base, new)
            failures += len(mismatched)
        if not new.get("identical", False):
            print(f"FAIL {k}: determinism verdict is false")
            failures += 1
        if base.get("failed", False) and new.get("failed", False):
            continue  # no meaningful seconds on either side
        ratios[k] = (new["seconds"] / base["seconds"]
                     if base["seconds"] > 0 else 1.0)

    machine = math.exp(sum(math.log(max(r, 1e-12)) for r in ratios.values())
                       / len(ratios)) if ratios else 1.0
    print(f"machine factor (geomean seconds ratio): {machine:.3f}x")
    if machine > args.uniform_slack:
        print(f"FAIL: uniform slowdown {machine:.2f}x exceeds "
              f"--uniform-slack {args.uniform_slack:.2f}x")
        failures += 1

    for k, ratio in sorted(ratios.items()):
        normalized = ratio / machine
        verdict = "ok"
        if normalized > 1.0 + args.tolerance:
            verdict = f"REGRESSION (> +{args.tolerance:.0%} normalized)"
            failures += 1
        print(f"{k}: {baseline[k]['seconds']:.6f}s -> "
              f"{fresh[k]['seconds']:.6f}s "
              f"(raw {ratio - 1.0:+.1%}, normalized {normalized - 1.0:+.1%}) "
              f"{verdict}")

    # Informational timing breakdown: one line per matched row and
    # column. Never touches `failures`.
    print("timing breakdown (informational, never gates):")
    print(f"  {'row':<60} {'column':<20} {'baseline':>13} "
          f"{'fresh':>13} {'delta':>13}")
    for k, base in sorted(baseline.items()):
        new = fresh[k]
        for col in TIMING_COLUMNS:
            b, f = base.get(col, 0.0), new.get(col, 0.0)
            print(f"  {str(k):<60} {col:<20} {b:>12.6f}s {f:>12.6f}s "
                  f"{f - b:>+12.6f}s")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all rows within threshold; counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
