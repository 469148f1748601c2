#!/usr/bin/env python3
"""Byte-compare a tool's stdout against a committed golden file.

Usage: check_golden_csv.py [--shards=N] GOLDEN_FILE BINARY [ARG...]

Runs BINARY with the given arguments and fails loudly (with a unified
diff) unless its stdout is byte-identical to GOLDEN_FILE. With
--shards=N it instead runs BINARY once per --shard=i/N, i = 0..N-1,
and compares the concatenation (each shard's CSV header dropped after
the first) — sharded runs must reproduce the unsharded output. CTest
uses this to pin tool-level CSV output, so `ctest` alone reproduces
the golden verdict locally.
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


def main(argv):
    shards = 0
    if len(argv) > 1 and argv[1].startswith("--shards="):
        shards = int(argv[1][len("--shards="):])
        argv = argv[:1] + argv[2:]
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    golden_path, binary, args = argv[1], argv[2], argv[3:]
    with open(golden_path, "rb") as f:
        golden = f.read()
    if shards:
        actual = b""
        for i in range(shards):
            out = run(binary, args + ["--shard=%d/%d" % (i, shards)])
            if out is None:
                return 1
            actual += out if i == 0 else out.split(b"\n", 1)[1]
    else:
        actual = run(binary, args)
        if actual is None:
            return 1
    if actual == golden:
        return 0
    sys.stderr.write("FAIL: output differs from %s\n" % golden_path)
    diff = difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path,
        tofile="actual",
    )
    sys.stderr.writelines(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
