#!/usr/bin/env python3
"""Byte-compare a tool's stdout against a committed golden file or a
second run of the same tool.

Usage:
  check_golden_csv.py [OPTION...] GOLDEN_FILE BINARY [ARG...]
  check_golden_csv.py [OPTION...] --runs BINARY [ARG...]
                      --first [ARG...] --second [ARG...]

The first form runs BINARY with the given arguments and fails loudly
(with a unified diff) unless its stdout is byte-identical to
GOLDEN_FILE. The second form runs BINARY twice: once with the shared
arguments plus those after --first, once with the shared arguments
plus those after --second, and compares the two outputs. CTest uses
both forms to pin tool-level CSV output, so `ctest` alone reproduces
every golden and run-vs-run verdict locally.

Options (each applies to both sides of the comparison):
  --shards=N       golden form only: run BINARY once per
                   --shard=i/N, i = 0..N-1, and compare the
                   concatenation (each shard's CSV header dropped after
                   the first) — sharded runs must reproduce the
                   unsharded output.
  --rows=TEXT      keep only the lines that contain TEXT.
  --expect-rows=N  fail unless exactly N lines survive --rows.
  --columns=LIST   keep only these comma-separated fields of each line,
                   as `cut -d, -f LIST` selects them (1-based; e.g.
                   "1-6" or "1,3-").
  --differ         pass only when the outputs differ.

An equality check whose filtered output is empty fails: comparing two
empty selections proves nothing.
"""

import difflib
import subprocess
import sys


def run(binary, args):
    """The tool's stdout, or None after reporting a nonzero exit."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(
            "FAIL: %s %s exited with %d\n"
            % (binary, " ".join(args), proc.returncode))
        return None
    return proc.stdout


def parse_columns(spec):
    """`cut -f` field list -> predicate on a 1-based field number."""
    ranges = []
    for part in spec.split(","):
        lo, dash, hi = part.partition("-")
        first = int(lo) if lo else 1
        last = (int(hi) if hi else None) if dash else first
        ranges.append((first, last))
    return lambda n: any(
        lo <= n and (hi is None or n <= hi) for lo, hi in ranges)


def project(text, rows, columns):
    """Keep the lines containing @p rows and the fields in @p columns."""
    lines = text.decode(errors="surrogateescape").splitlines(
        keepends=True)
    if rows is not None:
        lines = [line for line in lines if rows in line]
    if columns is not None:
        lines = [
            ",".join(f for n, f in enumerate(
                line.rstrip("\n").split(","), 1) if columns(n)) + "\n"
            for line in lines
        ]
    return lines


def main(argv):
    args = argv[1:]
    shards = 0
    rows = None
    expect_rows = None
    columns = None
    differ = False
    runs = False
    while args and args[0].startswith("--"):
        opt = args.pop(0)
        name, _, value = opt.partition("=")
        if name == "--shards":
            shards = int(value)
        elif name == "--rows":
            rows = value
        elif name == "--expect-rows":
            expect_rows = int(value)
        elif name == "--columns":
            columns = parse_columns(value)
        elif name == "--differ" and not value:
            differ = True
        elif name == "--runs" and not value:
            runs = True
        else:
            sys.stderr.write("unknown option %s\n%s" % (opt, __doc__))
            return 2

    if runs:
        if shards or not args or "--first" not in args or \
                "--second" not in args or \
                args.index("--first") > args.index("--second"):
            sys.stderr.write(__doc__)
            return 2
        binary = args[0]
        first = args.index("--first")
        second = args.index("--second")
        shared = args[1:first]
        expected_name = "first run"
        actual_name = "second run"
        expected = run(binary, shared + args[first + 1:second])
        if expected is None:
            return 1
        actual = run(binary, shared + args[second + 1:])
    else:
        if len(args) < 2:
            sys.stderr.write(__doc__)
            return 2
        golden_path, binary, tool_args = args[0], args[1], args[2:]
        expected_name = golden_path
        actual_name = "actual"
        with open(golden_path, "rb") as f:
            expected = f.read()
        if shards:
            actual = b""
            for i in range(shards):
                out = run(binary,
                          tool_args + ["--shard=%d/%d" % (i, shards)])
                if out is None:
                    return 1
                actual += out if i == 0 else out.split(b"\n", 1)[1]
        else:
            actual = run(binary, tool_args)
    if actual is None:
        return 1

    want = project(expected, rows, columns)
    got = project(actual, rows, columns)
    if expect_rows is not None:
        for name, lines in ((expected_name, want), (actual_name, got)):
            if len(lines) != expect_rows:
                sys.stderr.write(
                    "FAIL: %s has %d selected lines, expected %d\n"
                    % (name, len(lines), expect_rows))
                return 1
    if differ:
        if want != got:
            return 0
        sys.stderr.write("FAIL: %s and %s are identical\n"
                         % (expected_name, actual_name))
        return 1
    if not want:
        sys.stderr.write("FAIL: nothing selected to compare\n")
        return 1
    if want == got:
        return 0
    sys.stderr.write("FAIL: %s differs from %s\n"
                     % (actual_name, expected_name))
    sys.stderr.writelines(difflib.unified_diff(
        want, got, fromfile=expected_name, tofile=actual_name))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
