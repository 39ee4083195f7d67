#!/usr/bin/env python3
"""Runs one workload of the MIRO end-to-end benchmark for one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (and the libraries under src/) into .bench_build on
first use, runs the workload in its own single-threaded process, and prints
a metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the same op list twice, untraced and traced, checks that every count
repeats exactly, prints the untraced run's end-to-end table, and reports
the per-layer metrics in the JSON line; the traced run's spans are written
to .bench_build/spans-<workload>-<seed>.tsv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "miro_perfbench")
WORKLOADS = ("avoid_internet", "verify_internet", "live_planes")
CHILD_TIMEOUT_S = 85


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MIRO sources in %s; run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_child(args, trace):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    if args.inject_export_bug:
        command.append("--inject-export-bug")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                  CHILD_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark process exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def declared_metrics(key, produced):
    """The metrics BENCHMARK.json lists under `key`, in its order, with the
    values `produced` holds; a layer the workload never calls reports 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [(m["name"], m["unit"]) for m in json.load(f)[key]]
    metrics = {}
    for name, unit in declared:
        value = produced.get(name, {"value": 0.0, "unit": unit})
        if value["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, value["unit"], unit))
        metrics[name] = {"value": value["value"], "unit": unit}
    return metrics


def print_table(title, metrics):
    print(title)
    for name, metric in metrics.items():
        print("  %-34s %16.6g %s" % (name, metric["value"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-export-bug", action="store_true",
                        help="break the symbolic engine's export rule, to "
                             "show the output check catches it")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()

    untraced = run_child(args, 0)
    runs = [untraced]
    correct = untraced["failed"] == 0
    e2e = declared_metrics("end_to_end", untraced["e2e"])
    metrics = e2e
    if args.trace:
        traced = run_child(args, 1)
        runs.append(traced)
        if traced["counts"] != untraced["counts"]:
            correct = False
            print("error: counts differ between the untraced and traced runs",
                  file=sys.stderr)
        if traced["accounting"]:
            correct = False
            print("error: the span log does not account for the ops' wall "
                  "time: " + traced["accounting"], file=sys.stderr)
        produced = dict(traced["layer"])
        produced["bench.trace_overhead_frac"] = {
            "value": traced["timed_s"] / untraced["timed_s"] - 1,
            "unit": "fraction"}
        metrics = declared_metrics("per_layer", produced)
        correct = correct and traced["failed"] == 0

    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print("%s seed %d: %d ops of %s, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, untraced["ops"], untraced["work_unit"],
             failed, failed / attempted))
    print_table("end-to-end (untraced run):", e2e)
    if args.trace:
        print_table("per-layer (traced run):", metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
