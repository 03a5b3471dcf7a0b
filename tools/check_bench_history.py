#!/usr/bin/env python3
"""Check BENCH_history.jsonl against BENCHMARK.json (stdlib only).

BENCH_history.jsonl holds one JSON object per line, one line per
performance change, oldest first:

  pr             the change's number (as in CHANGES.md)
  parent_commit  the commit the change was measured against; the change
                 itself is the commit that adds the line
  host           hsgcbench's host descriptor from the change's runs
  protocol       how the medians were taken (seconds, seeds, pairs)
  workloads      for every workload in BENCHMARK.json, for every
                 end-to-end metric, {"parent": median, "change": median}
                 over the alternating-pair runs of bench/e2e/README.md's
                 "Comparing two commits"

Exits 1 naming the first line that does not parse or lacks a field, a
workload or an end-to-end metric that BENCHMARK.json names; 0 with a
summary otherwise.

Usage: tools/check_bench_history.py BENCH_history.jsonl BENCHMARK.json
"""

import json
import math
import sys


def fail(msg):
    print(f"check_bench_history: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(v):
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    )


def check_line(n, line, workloads, metrics):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"line {n} does not parse: {e}")
    if not isinstance(rec, dict):
        fail(f"line {n} is not a JSON object")
    for key in ("pr", "parent_commit", "host", "protocol", "workloads"):
        if key not in rec:
            fail(f"line {n} lacks {key!r}")
    if not isinstance(rec["host"], dict):
        fail(f"line {n}: host is not an object")
    measured = rec["workloads"]
    if not isinstance(measured, dict):
        fail(f"line {n}: workloads is not an object")
    for w in workloads:
        if w not in measured or not isinstance(measured[w], dict):
            fail(f"line {n} lacks workload {w!r}")
        for m in metrics:
            cell = measured[w].get(m)
            if not isinstance(cell, dict):
                fail(f"line {n}, workload {w!r} lacks metric {m!r}")
            for side in ("parent", "change"):
                if not is_number(cell.get(side)):
                    fail(
                        f"line {n}, workload {w!r}, metric {m!r}: "
                        f"{side} median is not a finite number"
                    )
    return rec["pr"]


def main(history, spec_path):
    try:
        with open(spec_path, "rb") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {spec_path}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    try:
        with open(history, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {history}: {e}")
    if not lines:
        fail(f"{history} is empty")
    prs = [check_line(n, line, workloads, metrics)
           for n, line in enumerate(lines, start=1)]
    print(
        f"check_bench_history: OK: {len(prs)} line(s), "
        f"{len(workloads)} workloads x {len(metrics)} end-to-end metrics "
        f"each (changes {', '.join(map(str, prs))})"
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1], sys.argv[2])
