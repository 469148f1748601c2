#!/usr/bin/env python3
"""Sanity-check a faulted (chaos) pra_serve CSV.

Usage: check_chaos_csv.py CHAOS_CSV

ctest runs this on tests/golden/pra_serve_chaos.csv, the output of a
pinned saturating fault scenario. Every data row must actually be
degraded:

  * availability < 1        (instances really failed)
  * shed_requests > 0       (the bounded queue shed load)
  * images_per_s <= offered_per_s  (goodput never exceeds offer)
  * completed < requests    (some work was shed or failed for good)

and across the whole sweep retries > 0 and killed_batches > 0 (a
fail-stop killed an in-flight batch and its requests came back).
Columns are located by header name so the check survives column
insertions.
"""

import csv
import sys

REQUIRED = [
    "offered_per_s", "requests", "images_per_s", "completed",
    "retries", "permanent_failures", "shed_requests",
    "killed_batches", "availability",
]


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1], newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        sys.stderr.write("FAIL: %s has no data rows\n" % argv[1])
        return 1
    missing = [c for c in REQUIRED if c not in rows[0]]
    if missing:
        sys.stderr.write(
            "FAIL: missing degraded columns: %s\n" % ", ".join(missing))
        return 1

    failures = []
    total_retries = 0
    total_killed = 0
    for i, row in enumerate(rows, start=2):  # line 1 is the header

        def bad(msg):
            failures.append("line %d (%s/%s): %s" % (
                i, row["network"], row["engine"], msg))

        availability = float(row["availability"])
        if not availability < 1.0:
            bad("availability %s is not < 1" % row["availability"])
        if int(row["shed_requests"]) <= 0:
            bad("no shed requests despite the queue cap")
        if float(row["images_per_s"]) > float(row["offered_per_s"]):
            bad("goodput %s exceeds offered %s" % (
                row["images_per_s"], row["offered_per_s"]))
        if int(row["completed"]) >= int(row["requests"]):
            bad("completed %s not below requests %s" % (
                row["completed"], row["requests"]))
        total_retries += int(row["retries"])
        total_killed += int(row["killed_batches"])

    if total_retries <= 0:
        failures.append("sweep-wide: no retries at all")
    if total_killed <= 0:
        failures.append("sweep-wide: no in-flight batch was killed")

    if failures:
        sys.stderr.write("FAIL: chaos CSV is not degraded enough:\n")
        for msg in failures:
            sys.stderr.write("  %s\n" % msg)
        return 1
    print("chaos OK: %d rows, %d retries, %d killed batches" % (
        len(rows), total_retries, total_killed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
