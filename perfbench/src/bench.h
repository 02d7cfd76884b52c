// Shared plumbing of the CFDS benchmark: run options, the result record each
// workload returns, wall-clock and memory probes, the in-memory span tracer,
// and order statistics.
//
// Every workload is measured from the outside: spans and counters are taken
// around calls into the public functions of each src/ module, never inside
// them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall time to keep repeating for; 0 runs a single repetition (traced
  /// runs and their untraced twins).
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload reports. End-to-end fields are always filled; `layer`
/// holds the per-layer metrics of a traced run.
struct Report {
  double work_per_s = 0.0;
  double peak_bytes_per_node = 0.0;
  double setup_s = 0.0;
  double detect_ms_p50 = 0.0;
  double detect_ms_p90 = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// work_per_s of each measured repetition (of each deployment run, for
  /// service); the reported value is their median.
  std::vector<double> rep_rates;
  /// Every set-up sample, in seconds; setup_s is their median.
  std::vector<double> setups;
  /// Extra facts for the run's info line.
  std::string note;
  std::map<std::string, double> layer;
};

// --- clocks and memory ------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Current resident set size in bytes (/proc/self/statm).
[[nodiscard]] std::uint64_t rss_bytes();
/// Peak resident set size of this program image (VmHWM from
/// /proc/self/status; unlike getrusage's ru_maxrss it does not inherit the
/// peak of the process that exec'd us), in bytes; 0 if unreadable.
[[nodiscard]] std::uint64_t peak_rss_bytes();
/// Resets the peak-RSS mark to the current RSS so a later peak_rss_bytes()
/// reads the peak of one phase. Returns false if unsupported.
bool reset_hwm();

// --- host noise reference ---------------------------------------------------

struct HostProbe {
  double alu_ms = 0.0;   ///< fixed integer loop
  double dram_ms = 0.0;  ///< fixed pointer chase over 64 MB
};
/// Runs the fixed probes in a child process, so their 64 MB buffer never
/// shows in this process's peak RSS.
[[nodiscard]] HostProbe probe_host();

// --- tracing ----------------------------------------------------------------

/// One timed interval: name, start, end (ns since the tracer's epoch) and
/// the index of the enclosing span (-1 at the top).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
};

/// In-memory span recorder. A disabled tracer records nothing; the
/// workloads test on() once per boundary.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  std::int32_t begin(const char* name);
  void end(std::int32_t span);

  /// Sum of the durations of every span named `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Writes every span as one JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.on() ? tracer.begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// --- order statistics -------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- set-up samples ---------------------------------------------------------

/// Set-up time one sample sums before it counts. A sub-millisecond set-up
/// timed once does not repeat from run to run. Timed back to back it is
/// bimodal on a shared host (model_check's first world reads ~0.9 us or
/// ~1.5 us for stretches of 100 ms or more, whichever core it runs on), so a
/// sample must outlast those stretches and average over them.
constexpr double kSetupSampleS = 0.2;

/// Hands the heap's free memory back to the kernel (malloc_trim), so that
/// the next set-up faults in every page it touches, as it would in a fresh
/// process, whatever ran before it.
void trim_heap();

/// One set-up sample: trims the heap, then calls `build`, which performs one
/// set-up and returns the seconds it took (teardown excluded), until at
/// least `min_s` of set-up has been timed; returns the mean seconds of one
/// set-up.
template <typename Build>
[[nodiscard]] double setup_sample(Build&& build, double min_s = kSetupSampleS) {
  trim_heap();
  double total = 0.0;
  long count = 0;
  do {
    total += build();
    ++count;
  } while (total < min_s);
  return total / double(count);
}

// --- workloads --------------------------------------------------------------

/// Each workload runs for about opt.seconds of measured wall time (plus its
/// set-up), checks its outputs and fills a Report. With a tracer that is
/// on, it also records spans and fills Report::layer.
Report run_field(const Options& opt, Tracer& tracer);
Report run_paper_mc(const Options& opt, Tracer& tracer);
Report run_model_check(const Options& opt, Tracer& tracer);
Report run_service(const Options& opt, Tracer& tracer);

}  // namespace perfbench
