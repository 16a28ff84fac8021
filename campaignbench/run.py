#!/usr/bin/env python3
"""End-to-end campaign benchmark.

Run from the root of a source checkout:

    python3 campaignbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 campaignbench/run.py --workload all --seed <n> --seconds <s>

Builds the library and the benchmark program from source into .bench_build (CMake,
Release), then runs the workload in its own process, so its peak RSS is
that workload's alone. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of the traced run. The
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
when the build fails, a run fails or any output check fails.

--workload all runs every workload (each in its own process) with
--trace 0, prints each end-to-end metric by name and unit plus
failed_frac per workload, and exits non-zero if any workload failed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "campaignbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
WORKLOADS = ["aes_core_cpa", "des_round_sharded_dpa", "des_round_recipe_sweep"]
# A run measures --seconds, plus at most a few campaigns past the deadline.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(msg):
    print("campaignbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "campaign.cpp")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (exit code, human lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload %s printed no result (exit code %d)" % (workload, proc.returncode))
    want = declared_metrics(trace)
    if want is not None and list(result["metrics"]) != want:
        fail("workload %s reported metrics %s, BENCHMARK.json declares %s"
             % (workload, list(result["metrics"]), want))
    return proc.returncode, lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        code, lines, result = run_workload(args.workload, args.seed, args.seconds,
                                           args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        sys.exit(code if code != 0 else (0 if result["correct"] else 1))

    summary = {}
    ok = True
    for w in WORKLOADS:
        code, lines, result = run_workload(w, args.seed, args.seconds, 0)
        print("\n".join(lines))
        good = code == 0 and result["correct"]
        ok = ok and good
        frac = result["failed"] / result["attempted"]
        summary[w] = {"correct": good, "failed_frac": frac,
                      "metrics": result["metrics"]}
    print("\n%-24s %-20s %18s  %s" % ("workload", "metric", "value", "unit"))
    for w, s in summary.items():
        for name, m in s["metrics"].items():
            print("%-24s %-20s %18.6f  %s" % (w, name, m["value"], m["unit"]))
        print("%-24s %-20s %18.6f  %s" % (w, "failed_frac", s["failed_frac"], "frac"))
    print(json.dumps({"correct": ok, "workloads": summary}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
