#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * std::uint64_t(::sysconf(_SC_PAGESIZE));
}

void trim_heap() { ::malloc_trim(0); }

bool reset_hwm() {
  std::ofstream refs("/proc/self/clear_refs");
  if (!refs) return false;
  refs << "5";
  refs.flush();
  return bool(refs);
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // kB
    }
  }
  return 0;
}

namespace {

double alu_probe_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  // Keep the result observable so the loop is not folded away.
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_since(start) * 1e3;
}

double dram_probe_ms() {
  // A single random cycle over 8M slots (64 MB): every load misses cache.
  constexpr std::size_t kSlots = std::size_t{1} << 23;
  std::vector<std::uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  cfds::Rng rng(0xD7A3);
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.below(i)]);
  }
  const auto start = Clock::now();
  std::uint64_t at = 0;
  for (std::size_t step = 0; step < 1'000'000; ++step) at = next[at];
  volatile std::uint64_t sink = at;
  (void)sink;
  return seconds_since(start) * 1e3;
}

}  // namespace

HostProbe probe_host() {
  HostProbe probe;
  int fds[2];
  if (::pipe(fds) != 0) return probe;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const double out[2] = {alu_probe_ms(), dram_probe_ms()};
    const ssize_t wrote = ::write(fds[1], out, sizeof out);
    ::_exit(wrote == ssize_t(sizeof out) ? 0 : 1);
  }
  ::close(fds[1]);
  if (pid > 0) {
    double in[2] = {0.0, 0.0};
    if (::read(fds[0], in, sizeof in) == ssize_t(sizeof in)) {
      probe.alu_ms = in[0];
      probe.dram_ms = in[1];
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  ::close(fds[0]);
  return probe;
}

std::int32_t Tracer::begin(const char* name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  spans_.push_back(Span{name, now, now, open_});
  open_ = std::int32_t(spans_.size() - 1);
  return open_;
}

void Tracer::end(std::int32_t span) {
  Span& s = spans_[std::size_t(span)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - epoch_)
                 .count();
  open_ = s.parent;
}

double Tracer::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return double(ns) / 1e6;
}

std::size_t Tracer::count(const std::string& name) const {
  return std::size_t(std::count_if(spans_.begin(), spans_.end(),
                                   [&](const Span& s) { return name == s.name; }));
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * double(values.size()));
  const std::size_t at = rank < 1.0 ? 0 : std::size_t(rank) - 1;
  return values[std::min(at, values.size() - 1)];
}

}  // namespace perfbench
