#!/usr/bin/env python3
"""Runs workloads on several seeds and reports each end-to-end metric's
median and interquartile spread (Q3 - Q1 as a share of the median, with
quartiles from statistics.quantiles(values, n=4)) against its bound.

    python3 perfbench/steadiness.py [--workloads A,B] [--seeds 1-10]
                                    [--seconds S] [--json OUT]

A spread under a third of the bound is steady; setup_s is exempt from the
spread rule but reported all the same.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()

    record = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d failed" % (workload, seed))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print("%s seed %d: outputs incorrect" % (workload, seed))
            runs.append({name: m["value"]
                         for name, m in result["metrics"].items()})
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % kv for kv in runs[-1].items())), flush=True)
        record[workload] = runs
        print("%-16s %-12s %12s %8s %8s" % (workload, "metric", "median",
                                             "spread", "bound"))
        for metric in bench["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            print("%-16s %-12s %12.5g %7.2f%% %7.0f%% %s" % (
                "", metric["name"], statistics.median(values), 100 * spread,
                100 * metric["bound"], "" if ok else "NOT STEADY"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
