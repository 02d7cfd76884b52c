// perfbench: runs one CFDS benchmark workload and prints what it measured.
//
//   perfbench --workload field|paper_mc|model_check|service --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 runs the named workload untraced for about S seconds of
// measurement and reports its end-to-end values. --trace 1 runs every
// benchmark workload once traced and once untraced (the named one first),
// reports every per-layer value and each workload's tracing overhead, and
// writes the spans to --trace-out.
//
// service is not one of the benchmark's workloads: on this tree it fails
// its own check on most seeds (service mode never declares some crashed
// clusterheads; see BASELINE.md). It runs untraced only, as a reproducer.
//
// The last line of standard output is one JSON object
//   {"attempted": A, "failed": F, "values": {"<metric>": <number>, ...}}
// perfbench/run.py checks the names against BENCHMARK.json and attaches
// their units. The line before it is the host noise reference: a fixed ALU
// loop and a fixed DRAM pointer chase, timed at the start and at the end of
// the run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

using WorkloadFn = Report (*)(const Options&, Tracer&);

/// The workloads of BENCHMARK.json, in the traced run's order.
const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> all = {
      {"field", &run_field},
      {"paper_mc", &run_paper_mc},
      {"model_check", &run_model_check},
  };
  return all;
}

WorkloadFn find_workload(const std::string& name, bool trace) {
  for (const auto& [n, fn] : workloads()) {
    if (n == name) return fn;
  }
  if (name == "service" && !trace) return &run_service;
  return nullptr;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload field|paper_mc|model_check|service"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       (service runs with --trace 0 only)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else {
      usage();
    }
  }
  const WorkloadFn fn = find_workload(opt.workload, opt.trace);
  if (fn == nullptr || !have_seed || !have_seconds || !have_trace) usage();

  const HostProbe host_start = probe_host();
  std::int64_t attempted = 0, failed = 0;
  std::map<std::string, double> values;

  if (!opt.trace) {
    Tracer off(false);
    const Report r = fn(opt, off);
    attempted = r.attempted;
    failed = r.failed;
    values = {
        {"work_per_s", r.work_per_s},
        {"peak_bytes_per_node", r.peak_bytes_per_node},
        {"setup_s", r.setup_s},
        {"detect_ms_p50", r.detect_ms_p50},
        {"detect_ms_p90", r.detect_ms_p90},
    };
    std::printf("perfbench: %s seed %llu: work_per_s of %zu samples:",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                r.rep_rates.size());
    for (const double rate : r.rep_rates) std::printf(" %.6g", rate);
    std::printf("; setup_s of %zu samples:", r.setups.size());
    for (const double s : r.setups) std::printf(" %.4g", s);
    std::printf("%s%s\n", r.note.empty() ? "" : "; ", r.note.c_str());
  } else {
    // Every layer is measured in every traced run, the named workload
    // first; each workload also runs once untraced for the overhead.
    std::vector<std::pair<std::string, WorkloadFn>> order = {{opt.workload, fn}};
    for (const auto& w : workloads()) {
      if (w.first != opt.workload) order.push_back(w);
    }
    Tracer tracer(true);
    for (const auto& [name, run] : order) {
      Options once = opt;
      once.seconds = 0.0;  // one measured repetition
      Tracer off(false);
      // Traced first, on a trimmed heap, so the RSS ledger sees the
      // workload's own allocations rather than reused free memory.
      trim_heap();
      const Report traced = run(once, tracer);
      const Report plain = run(once, off);
      values.insert(traced.layer.begin(), traced.layer.end());
      values["trace." + name + "_overhead"] =
          (plain.work_per_s - traced.work_per_s) / plain.work_per_s;
      attempted += plain.attempted + traced.attempted;
      failed += plain.failed + traced.failed;
    }
    if (!trace_out.empty() && !tracer.write_json(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  const HostProbe host_end = probe_host();
  if (opt.trace) {
    values["host.alu_ms"] = 0.5 * (host_start.alu_ms + host_end.alu_ms);
    values["host.dram_ms"] = 0.5 * (host_start.dram_ms + host_end.dram_ms);
  }
  std::printf("{\"host\": {\"alu_ms_start\": %.4f, \"alu_ms_end\": %.4f, "
              "\"dram_ms_start\": %.4f, \"dram_ms_end\": %.4f}}\n",
              host_start.alu_ms, host_end.alu_ms, host_start.dram_ms,
              host_end.dram_ms);
  std::printf("{\"attempted\": %lld, \"failed\": %lld, \"values\": {",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
