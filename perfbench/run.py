#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --determinism

Run from the root of a checkout. The first form builds perfbench/main.exe
from source (dune, into .bench_build/), runs workload W with inputs made
from seed N for about S seconds, checks its outputs, and prints one JSON
object as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run (its
spans go to .bench_out/).

setup_s is the median over several processes: main.exe is started
SETUP_RUNS - 1 times with --setup-only before the measured run, and each
reports the time from its launch to the end of its set-up.

The second form is the determinism self-check: one pass twice at seed N
and once at seed N + 1. It fails if an exact count differs between the
two runs at seed N, or if any run records a failed operation.

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["claims-n5", "apps-mix", "single-large-n", "check-n5"]
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no sources to build: run from the root of a full checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "-j", "2", "./perfbench/main.exe"]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)


def run_exe(args):
    """Runs main.exe and returns its last output line, parsed."""
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run([EXE] + args + ["--t0-ns", str(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die("run failed: %s" % e)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("main.exe exited with code %d" % p.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def measure(a):
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace == 1:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))
        return run_exe(base + ["--spans", spans])
    setups = [run_exe(base + ["--setup-only"])["metrics"]["setup_s"]["value"]
              for _ in range(SETUP_RUNS - 1)]
    result = run_exe(base)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def determinism(a):
    base = ["--workload", a.workload, "--seconds", "1", "--trace", "0", "--determinism"]
    first, second, other = (run_exe(base + ["--seed", str(s)]) for s in (a.seed, a.seed, a.seed + 1))
    diffs = sorted(k for k in set(first["exact"]) | set(second["exact"])
                   if first["exact"].get(k) != second["exact"].get(k))
    failed = [r["failed"] for r in (first, second, other)]
    ok = not diffs and failed == [0, 0, 0]
    print(json.dumps({"workload": a.workload, "seeds": [a.seed, a.seed + 1], "exact": first["exact"],
                      "differing_counts": diffs, "failed": failed, "deterministic": ok}))
    return ok


def main():
    ap = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--determinism", action="store_true")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    build()
    if a.determinism:
        sys.exit(0 if determinism(a) else 1)
    print(json.dumps(measure(a)))


if __name__ == "__main__":
    main()
