#!/usr/bin/env python3
"""Gate fresh bench runs against every committed BenchRecord row.

Usage:
  tools/check_bench.py --fresh RUN.jsonl [--fresh RUN2.jsonl ...]
                       [--baseline BENCH_kernel.json ...]
                       [--floor-ratio 0.25] [--ceil-ratio 2.0]

Reads BenchRecord JSONL rows ({"bench":...,"metric":...,"n":...,
"value":...,"label":...}). The committed baselines default to
BENCH_kernel.json and BENCH_megascale.json at the repository root; for each
(bench, metric, n) the newest row (the last one in the file — captures are
appended in label order) is the baseline. Each committed row is then gated
by its metric's kind:

  rates (*_per_sec):            fresh >= floor-ratio * committed
  costs (ms, *_ms, bytes_per_node): fresh <= ceil-ratio * committed

A committed row whose (bench, n) the fresh runs did not produce at all is
skipped (CI runs the kernel study and the 10^4/10^5 megascale decades, not
10^6). A committed row whose (bench, n) the fresh runs did produce but
whose metric they lack fails, as does a metric with no gate rule: every
committed row is either gated or visibly not run.

The ratios are deliberately loose: CI machines differ from the machine that
captured the baseline, and the gate exists to catch order-of-magnitude
regressions (an accidental O(n) sweep, a reintroduced per-epoch allocation
storm, an O(pool) step on the schedule path), not 10% noise. Tighten them
only with a baseline captured on the CI machine class itself.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINES = [os.path.join(ROOT, "BENCH_kernel.json"),
                     os.path.join(ROOT, "BENCH_megascale.json")]


def load_rows(paths):
    """(bench, metric, n) -> value; a later row overrides an earlier one."""
    rows = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    key = (rec["bench"], rec["metric"], rec["n"])
                    rows[key] = float(rec["value"])
        except OSError as err:
            sys.exit(f"check_bench: cannot read {path}: {err}")
    return rows


def gate_kind(metric):
    if metric.endswith("_per_sec"):
        return "floor"
    if metric == "ms" or metric.endswith("_ms") or metric == "bytes_per_node":
        return "ceil"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fresh", action="append", required=True,
                    help="JSONL from this run (repeatable)")
    ap.add_argument("--baseline", action="append",
                    help="committed JSONL (repeatable; default: "
                         "BENCH_kernel.json and BENCH_megascale.json)")
    ap.add_argument("--floor-ratio", type=float, default=0.25)
    ap.add_argument("--ceil-ratio", type=float, default=2.0)
    args = ap.parse_args()

    committed = load_rows(args.baseline or DEFAULT_BASELINES)
    fresh = load_rows(args.fresh)
    produced = {(bench, n) for bench, _, n in fresh}

    failures = []
    checked = skipped = 0
    for (bench, metric, n), base in sorted(committed.items()):
        name = f"{bench}/{metric} n={n}"
        if (bench, n) not in produced:
            skipped += 1
            continue
        kind = gate_kind(metric)
        if kind is None:
            failures.append(f"{name}: no gate rule for metric {metric!r}")
            continue
        value = fresh.get((bench, metric, n))
        if value is None:
            failures.append(f"{name}: committed row, but the fresh run of "
                            f"{bench} n={n} did not report it")
            continue
        checked += 1
        if kind == "floor":
            limit = args.floor_ratio * base
            ok = value >= limit
            bound = f"floor {limit:.4g}"
        else:
            limit = args.ceil_ratio * base
            ok = value <= limit
            bound = f"ceiling {limit:.4g}"
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: fresh {value:.4g}  "
              f"committed {base:.4g}  {bound}")
        if not ok:
            failures.append(f"{name}: fresh {value:.4g} beyond {bound} "
                            f"(committed {base:.4g})")

    print(f"check_bench: {checked} rows gated, {skipped} committed rows "
          f"not run")
    if checked == 0:
        failures.append("no committed row matched the fresh runs")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("check_bench: OK")


if __name__ == "__main__":
    main()
