#!/usr/bin/env python3
"""CI perf-smoke gate over bench --json telemetry (ISSUE 4 satellite 5;
federation sweep added in ISSUE 6).

Compares a freshly generated BENCH_<name>.json against its committed
baseline under bench/baselines/:

  * the time column must not regress by more than GATE (default 2.0x,
    generous on purpose: CI machines are noisy and slower than the box the
    baseline came from);
  * the collected column must match the baseline exactly — a change may
    make the planner faster, never let it collect less.

The defaults gate the fig10 plan-evaluation-engine table; --section /
--key-column / --time-column / --collected-column retarget the same gate
at any other bench section, e.g. the federated shard sweep:

  perf_smoke.py base.json cur.json \
      --section "federated planning vs shard count" \
      --key-column K --time-column "max shard (s)"

Usage: perf_smoke.py BASELINE.json CURRENT.json [--gate 2.0] [--section S]
Exits non-zero with a diagnostic on any violation. Stdlib only.
"""

import argparse
import json
import sys


def section_rows(path, section_title, key_column, time_column, collected_column):
    with open(path) as f:
        doc = json.load(f)
    for section in doc["sections"]:
        if section["title"].startswith(section_title):
            headers = section["headers"]
            return {
                int(row[headers.index(key_column)]): {
                    "time": float(row[headers.index(time_column)]),
                    "collected": int(row[headers.index(collected_column)]),
                }
                for row in section["rows"]
            }
    sys.exit(f"{path}: no '{section_title}' section found")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--gate", type=float, default=2.0,
                    help="max allowed time ratio current/baseline")
    ap.add_argument("--section", default="plan-evaluation engine",
                    help="section title prefix to gate on")
    ap.add_argument("--key-column", default="nodes",
                    help="integer column identifying each row across runs")
    ap.add_argument("--time-column", default="parallel (ms)",
                    help="column holding the gated wall time")
    ap.add_argument("--collected-column", default="collected",
                    help="column that must match the baseline exactly")
    args = ap.parse_args()

    def rows(path):
        return section_rows(path, args.section, args.key_column,
                            args.time_column, args.collected_column)

    base = rows(args.baseline)
    cur = rows(args.current)
    failures = []
    key = args.key_column
    print(f"{key:>6} {'base t':>9} {'cur t':>9} {'ratio':>6}  collected")
    for k, b in sorted(base.items()):
        if k not in cur:
            failures.append(f"{key}={k}: missing from current run")
            continue
        c = cur[k]
        # A zero baseline cell (sub-resolution timing) cannot gate a ratio.
        ratio = c["time"] / b["time"] if b["time"] > 0 else 1.0
        match = "==" if c["collected"] == b["collected"] else "!="
        print(f"{k:>6} {b['time']:>9.2f} {c['time']:>9.2f} {ratio:>6.2f}  "
              f"{b['collected']} {match} {c['collected']}")
        if ratio > args.gate:
            failures.append(
                f"{key}={k}: time {c['time']:.2f} is "
                f"{ratio:.2f}x baseline {b['time']:.2f} (gate {args.gate}x)")
        if c["collected"] != b["collected"]:
            failures.append(
                f"{key}={k}: collected pairs {c['collected']} != "
                f"baseline {b['collected']}")
    if failures:
        print("\nPERF SMOKE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
