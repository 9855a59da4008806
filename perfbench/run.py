#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the `perfbench` binary
from perfbench/CMakeLists.txt (which compiles the simulator from src/)
into .bench_build/perfbench, pins the DLP_* environment for the workload,
runs the binary and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 is the timed run and reports the end-to-end metrics: host time
of the workload (its fastest repetitions, each from an empty result
cache, scaled to a quiet host by a probe of the host's speed), set-up
time (the median over three fresh processes) and accuracy
against the paper's Table 4 and Figure 5 on the tuning seed 1234 and on a
held-out seed. The model has no reference but the paper, so it gives no
other error figure. --trace 1 is the separate traced run and reports the
per-layer metrics; it writes its spans as Chrome trace-event JSON under
.bench_build/traces/.

Every simulated cell is checked (golden-model verification, the cost
oracle's sound bound, the audit where it runs); any failure makes the
run exit 1. Metric meanings are in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ("grid-full-serial", "sweep-short-checked")
TUNING_SEED = 1234   # the seed the model and its goldens were tuned on
HELDOUT_SEED = 5678  # a dataset seed no tuning used
RUN_LIMIT_S = 170    # every run after the build ends within this


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(len(os.sched_getaffinity(0)))],
                   stdout=sys.stderr, check=True)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def pinned_env(workload):
    """The environment for one binary run, or exit if an inherited DLP_*
    variable would change what is measured."""
    args = [BINARY, "pins"]
    if workload:
        args += ["--workload", workload]
    pins = last_json(subprocess.run(args, capture_output=True, text=True,
                                    check=True).stdout)
    env = dict(os.environ)
    for var, want in pins.items():
        got = os.environ.get(var, "")
        if got not in ("", want):
            log(f"perfbench: refusing inherited {var}={got!r}; "
                f"this workload pins it to {want!r}")
            sys.exit(2)
        env[var] = want
    return env


def run_binary(args, env, deadline):
    """Run the binary; relay its log lines; return its result object."""
    proc = subprocess.run([BINARY] + args, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1]) if lines else None
    if result is None or "correct" not in result:
        log(f"perfbench: {args[0]} produced no result "
            f"(exit {proc.returncode})")
        sys.exit(1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1
    deadline = time.time() + RUN_LIMIT_S

    env = pinned_env(opts.workload)
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    results = []
    if opts.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        out = os.path.join(traces, f"{opts.workload}-seed{opts.seed}.json")
        main_run = run_binary(["trace"] + common + ["--trace-out", out],
                              env, deadline)
        results.append(main_run)
        metrics = main_run["metrics"]
    else:
        main_run = run_binary(["run"] + common +
                              ["--seconds", str(opts.seconds)], env, deadline)
        results.append(main_run)
        metrics = dict(main_run["metrics"])
        # Accuracy runs at paper scale on every core. Each is a fresh
        # process, so each also gives one more set-up sample.
        acc_env = pinned_env(None)
        setups = [main_run["setup_s"]]
        for seed, suffix in ((TUNING_SEED, ""), (HELDOUT_SEED, "_heldout")):
            acc = run_binary(["accuracy", "--seed", str(seed)], acc_env,
                             deadline)
            results.append(acc)
            setups.append(acc["setup_s"])
            metrics["table4_err" + suffix] = {
                "value": acc["table4_err"], "unit": "ln-ratio"}
            metrics["fig5_mismatch" + suffix] = {
                "value": acc["fig5_mismatch"], "unit": "count"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded its time limit")
        sys.exit(1)
