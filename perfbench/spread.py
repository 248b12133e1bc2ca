#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload forum [--seeds 1-10]
        [--out runs.jsonl]

Runs perfbench/run.py once per seed (--trace 0, run_seconds from
BENCHMARK.json), then prints for every end-to-end metric its median and
the distance between the first and third quartile as a share of the
median, beside the metric's bound. A metric is steady when its spread
stays under a third of its bound (setup_s is exempt from the spread
rule; its median must stay within its bound between sets of runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--out", help="append each run's JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [sys.executable, RUN, "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("seed %d: exit code %d" % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload,
                                    "seed": seed, "result": result}) + "\n")
        print("seed %d done" % seed, file=sys.stderr)

    print("%-22s %14s %8s %7s %s" % ("metric", "median", "spread",
                                      "bound", "steady"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = name == "setup_s" or spread < bounds[name] / 3
        print("%-22s %14.6g %8.4f %7.3f %s" % (name, med, spread,
                                              bounds[name],
                                              "yes" if steady else "NO"))


if __name__ == "__main__":
    main()
