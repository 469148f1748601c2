#!/usr/bin/env python3
"""Benchmark of the Bit-Pragmatic simulator: build, run one workload, report.

Usage (from the root of a checkout):

  python3 prabench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 prabench/run.py --smoke [--workload NAME]
  python3 prabench/run.py --self-test

Builds prabench (prabench/CMakeLists.txt, Release) from the
checkout's own sources into $CARGO_TARGET_DIR/prabench (default
.bench_build/prabench), runs it, checks that the metrics it printed are
exactly the ones BENCHMARK.json names, records the result with its
provenance under <build dir>/results, and prints the result as the last
line of stdout. See prabench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "prabench")

# The seed every run defaults to, and the one held out for gain claims:
# a claimed speed-up must also hold at HELD_OUT_SEED, which no tuning of
# the benchmark or of the simulator may use.
DEFAULT_SEED = 0x5EED
HELD_OUT_SEED = 0xFEED

# prabench runs for about --seconds plus a run or two of the workload (and
# one traced run); this bounds a hung run well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("prabench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_seed(text):
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    if text in named:
        return named[text]
    try:
        seed = int(text) if text.isdigit() else int(text, 0)
    except ValueError:
        fail("--seed must be an integer, 'default' or 'held-out' (got %r)" % text)
    if seed < 0:
        fail("--seed must be non-negative")
    return seed


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "prabench")


def build():
    """Configure and build prabench; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to prabench/ in %s" % ROOT)
    out = build_dir()
    for step in (["cmake", "-S", BENCH_DIR, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "--target", "prabench",
                  "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "prabench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    # Never let git search above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources prabench is built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "prabench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_program(program, args):
    """Run prabench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([program] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("prabench did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(bench, groups):
    return {m["name"]: m["unit"] for g in groups for m in bench[g]}


def check_result(line, expected):
    """Parse prabench's result line and hold it to BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("prabench printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default=str(DEFAULT_SEED))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny network, every metric, one run each")
    parser.add_argument("--self-test", action="store_true",
                        help="show every correctness check catches a break")
    args = parser.parse_args()
    seed = parse_seed(args.seed)

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    program = build()
    if args.self_test:
        code, lines = run_program(program, ["--self-test"])
        print("\n".join(lines))
        sys.exit(code)

    if args.smoke:
        chosen = [args.workload] if args.workload else workloads
        groups = ("end_to_end", "per_layer")
    else:
        if args.workload is None or args.seconds is None:
            fail("--workload and --seconds are required")
        chosen = [args.workload]
        groups = ("per_layer",) if args.trace else ("end_to_end",)
    for name in chosen:
        if name not in workloads:
            fail("unknown workload %r (BENCHMARK.json has %s)"
                 % (name, ", ".join(workloads)))

    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    commit, source = git_commit(), source_digest()
    all_correct = True
    for name in chosen:
        program_args = ["--workload=" + name, "--seed=%d" % seed,
                       "--seconds=%d" % (args.seconds or 1),
                       "--trace=%d" % args.trace, "--out-dir=" + results_dir,
                       "--commit=" + commit, "--source=" + source]
        if args.smoke:
            program_args.append("--smoke")
        code, lines = run_program(program, program_args)
        if code != 0 or not lines:
            fail("prabench exited with code %d" % code)
        result = check_result(lines[-1], expected_metrics(bench, groups))
        provenance = next((json.loads(l.split(" ", 1)[1]) for l in lines
                           if l.startswith("provenance ")), {})
        record = os.path.join(results_dir, "%s-%d-trace%d%s.json" % (
            name, seed, args.trace, "-smoke" if args.smoke else ""))
        with open(record, "w") as f:
            json.dump({"provenance": provenance, "result": result}, f,
                      indent=1)
        print("\n".join(lines[:-1]))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    if args.smoke and not all_correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
