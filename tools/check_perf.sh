#!/bin/sh
# Perf + determinism gate for the simulator hot paths (see docs/PERF.md).
#
# Builds a Release tree and a ThreadSanitizer tree, runs the smoke-sized
# bench_kernel study under both (catching crashes, CFDS_EXPECT aborts, and
# data races on the schedule/cancel/fire paths), then checks that the fig5
# Monte-Carlo JSONL is byte-identical across thread counts AND across event
# queue implementations (calendar queue vs the --no-calendar binary heap),
# and finally gates the full bench_kernel study and the megascale decades up
# to n=10^5 (rate floors, ms and bytes/node ceilings) against every
# committed BENCH_kernel.json / BENCH_megascale.json row they produce.
#
# Usage: tools/check_perf.sh [build-dir-prefix]
#   Build trees land in <prefix>-release/ and <prefix>-tsan/
#   (default prefix: build-perf).

set -eu

cd "$(dirname "$0")/.."
prefix="${1:-build-perf}"

build() {
  dir="$1"
  shift
  echo "== configure + build $dir"
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target bench_kernel cfds_cli >/dev/null
}

build "$prefix-release" -DCMAKE_BUILD_TYPE=Release
cmake --build "$prefix-release" -j "$(nproc)" --target bench_megascale \
    bench_scalability >/dev/null
build "$prefix-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCFDS_SANITIZE=thread

echo "== smoke bench (Release)"
"./$prefix-release/bench/bench_kernel" --trials 10 \
    --benchmark_filter=SKIPALL >/dev/null
echo "== smoke bench (ThreadSanitizer)"
"./$prefix-tsan/bench/bench_kernel" --trials 10 \
    --benchmark_filter=SKIPALL >/dev/null

echo "== determinism: fig5 JSONL at --threads 1 vs --threads 8"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for threads in 1 8; do
  "./$prefix-release/tools/cfds_cli" --mc fig5 --cluster-n 20,30 \
      --trials 4000 --threads "$threads" --seed 7 --no-wall-time \
      --out "$tmp/fig5.t$threads.jsonl"
done
if ! cmp -s "$tmp/fig5.t1.jsonl" "$tmp/fig5.t8.jsonl"; then
  echo "FAIL: fig5 JSONL differs between thread counts" >&2
  diff "$tmp/fig5.t1.jsonl" "$tmp/fig5.t8.jsonl" >&2 || true
  exit 1
fi

echo "== determinism: fig5 JSONL calendar queue vs --no-calendar heap"
"./$prefix-release/tools/cfds_cli" --mc fig5 --cluster-n 20,30 \
    --trials 4000 --threads 8 --seed 7 --no-wall-time --no-calendar \
    --out "$tmp/fig5.heap.jsonl"
if ! cmp -s "$tmp/fig5.t8.jsonl" "$tmp/fig5.heap.jsonl"; then
  echo "FAIL: fig5 JSONL differs between calendar and heap queues" >&2
  diff "$tmp/fig5.t8.jsonl" "$tmp/fig5.heap.jsonl" >&2 || true
  exit 1
fi

echo "== bench gate: kernel study + megascale to n=10^5 vs committed rows"
"./$prefix-release/bench/bench_kernel" --out "$tmp/kernel.jsonl" \
    --benchmark_filter=SKIPALL >/dev/null
"./$prefix-release/bench/bench_megascale" --max-nodes 100000 \
    --threads 1 --out "$tmp/megascale.jsonl" --no-wall-time
python3 tools/check_bench.py --fresh "$tmp/kernel.jsonl" \
    --fresh "$tmp/megascale.jsonl"

echo "OK: smoke benches passed, fig5 JSONL byte-identical across threads" \
     "and queue implementations, bench rows within floor/ceiling"
