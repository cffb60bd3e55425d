#!/usr/bin/env python3
"""End-to-end benchmark of the 6G edge-AI simulator.

Builds libsixg and sixg_e2ebench from the checkout's sources
(Release, into .bench_build/e2ebench), runs one workload, checks its
outputs and prints the result as the last line of standard output:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with the
library's probes off; with --trace 1 they are the per-layer metrics of a
separate traced run. See README.md for the workloads and metrics.

usage: python3 e2ebench/run.py --workload W [--seed N] [--seconds S]
                               [--trace 0|1]
       python3 e2ebench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
PROGRAM = os.path.join(BUILD, "sixg_e2ebench")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("paper-suite", "fleet-city", "fleet-overload")
# The seed the benchmark was tuned on. Any other seed is held out: a claim
# made at this seed can be re-checked at one nobody tuned against.
DEFAULT_SEED = 1
# Beyond twice --seconds for the timed calls: the warm-up, the set-up
# samples and the fig2 replicas.
PROGRAM_MARGIN_S = 60


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring sixg_e2ebench up to date (a no-op when the
    sources have not changed)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources at {ROOT} (expected CMakeLists.txt and "
             "src/ beside the benchmark directory)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "sixg_e2ebench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed, see {log_path}")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_program(args):
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(
        runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    timeout = 2 * args.seconds + PROGRAM_MARGIN_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"sixg_e2ebench did not finish within {timeout:g} s")
    if done.returncode != 0:
        fail(f"sixg_e2ebench exited with code {done.returncode}")
    with open(out) as f:
        return json.load(f), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args()
    if args.self_test:
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    doc, raw_path = run_program(args)

    manifest = dict(doc["manifest"], git_describe=git_describe())
    attempted, failed, problems = benchlib.check_run(doc)
    for problem in problems:
        print(f"e2ebench: check failed: {problem}", file=sys.stderr)
    metrics = (benchlib.per_layer(doc) if args.trace
               else benchlib.end_to_end(doc))

    if args.trace:
        trace_path = raw_path.replace(".json", ".layers.json")
        with open(trace_path, "w") as f:
            json.dump({"manifest": manifest,
                       "layers": benchlib.layer_table(doc["spans"]),
                       "spans": doc["spans"]}, f, indent=1)
        print(f"e2ebench: spans and layer self times in {trace_path}",
              file=sys.stderr)
    walls = [op["wall_s"] for op in doc["ops"]]
    print(f"e2ebench: {len(walls)} timed calls, fastest {min(walls):.4g} s, "
          f"median {benchlib.median(walls):.4g} s, quartile spread "
          f"{benchlib.quartile_spread(walls):.3f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:16.6g} {unit}", file=sys.stderr)

    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("output_digest " + doc["warmup"][0].get("digest", "none"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
