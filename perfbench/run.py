#!/usr/bin/env python3
"""Builds the CFDS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload field|paper_mc|model_check|service \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The benchmark is compiled with CMake into
the directory named by $CARGO_TARGET_DIR (default .bench_build) on first use
and incrementally afterwards; build output goes to standard error. The last
line of standard output is the workload's JSON result. With --trace 1 the
spans of the run are written to <build dir>/trace-<workload>-<seed>.json.
--self-test builds and runs the benchmark's own tests instead.

The benchmark's workloads are field, paper_mc and model_check. service is
not one of them: it reproduces a service-mode detection defect of this tree
(perfbench/BASELINE.md) and runs with --trace 0 only.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("field", "paper_mc", "model_check", "service")
RUN_TIMEOUT_S = 175


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(step))


def result_line(line, units):
    """Turns the program's last line into the result object run.py prints, with
    the units BENCHMARK.json gives; None unless it reports exactly the
    metrics named in `units`."""
    try:
        raw = json.loads(line)
    except ValueError:
        return None
    if not isinstance(raw, dict) or set(raw) != {"attempted", "failed", "values"}:
        return None
    values = raw["values"]
    if not isinstance(values, dict) or set(values) != set(units):
        return None
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        return None
    return json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        build(build_dir, "perfbench_tests")
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build(build_dir, "perfbench")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = result_line(lines[-1], units) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        sys.exit("run.py: %s failed (exit %d) or did not report every metric"
                 % (args.workload, proc.returncode))
    print("\n".join(lines[:-1] + [result]))


if __name__ == "__main__":
    main()
