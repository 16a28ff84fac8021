#!/usr/bin/env python3
"""Steadiness self-check of the campaign benchmark.

    python3 campaignbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Runs two sets of --runs runs of every workload through run.py (seeds
1..runs in each set, each run in its own process), then reports for each
end-to-end metric and each set its median, first and third quartile
(Python's statistics.quantiles(n=4)) and the quartile spread as a share
of the median. A metric passes when, in each set, its spread stays
within its BENCHMARK.json bound (setup_s is exempt from the spread
test), and the second set's median is not worse than the first's by
more than the bound. The target for a steady benchmark is a spread below
a third of the bound; the report marks metrics above it. Exits non-zero
when any metric fails. The raw runs are written to
.bench_build/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "campaignbench", "run.py")


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    raw = {w: [[], []] for w in workloads}
    for s in range(2):
        for w in workloads:
            for seed in range(1, args.runs + 1):
                r = one_run(w, seed, args.seconds)
                raw[w][s].append(r["metrics"])
                print("set %d %-24s seed %2d  %s" % (s + 1, w, seed, "  ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                    flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    print("\n%-24s %-18s %5s %12s %12s %12s %7s %7s %7s  %s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "worse", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            sets = [stats([r[m["name"]]["value"] for r in raw[w][s]]) for s in range(2)]
            a, b = sets[0]["median"], sets[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            for s, st in enumerate(sets):
                verdict = []
                if m["name"] != "setup_s" and st["spread"] > m["bound"]:
                    verdict.append("SPREAD>BOUND")
                    ok = False
                elif st["spread"] > m["bound"] / 3:
                    verdict.append("spread>bound/3")
                if s == 1 and worse > m["bound"]:
                    verdict.append("DRIFT>BOUND")
                    ok = False
                print("%-24s %-18s %5d %12.6g %12.6g %12.6g %7.4f %7.3f %7s  %s" % (
                    w, m["name"], s + 1, st["median"], st["q1"], st["q3"], st["spread"],
                    m["bound"], "%.4f" % worse if s == 1 else "", " ".join(verdict) or "ok"))
    print("\nsteady: %s" % ("the two sets agree within the bounds" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
