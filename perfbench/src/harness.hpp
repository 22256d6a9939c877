#pragma once

// Shared plumbing of the efd benchmark harness: seed derivation, host
// timers and the host speed probe, the output digest, the harness's own
// span recorder, and the per-job result every workload fills in. The
// harness only times its own calls into the library's public API; see
// perfbench/NOTES.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds (user + system) of every thread of the process so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Process memory high-water mark in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nominal probe time: the host the end-to-end numbers are expressed in.
inline constexpr double kProbeRefS = 0.010;

/// One pass of a fixed kernel (xorshift, log1p, scattered reads and writes
/// over 64 KiB): its time tracks how fast this CPU runs right now.
inline double probe_pass() {
  std::vector<double> buf(8192, 1.0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 120; ++rep) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::size_t j = x & (buf.size() - 1);
      buf[j] = std::log1p(buf[i] + static_cast<double>(x >> 40) * 1e-9);
    }
  }
  const double t = seconds_since(t0);
  // Keep the loop observable so it is not optimized away.
  if (std::isnan(buf[x & (buf.size() - 1)])) std::printf("probe: NaN\n");
  return t;
}

/// Probe time of the slowest of `threads` concurrent passes (a sharded job
/// advances at the pace of its slowest shard). On a shared host, co-tenant
/// load slows the probe and the program alike; the end-to-end metrics divide
/// host time by probe / kProbeRefS to factor that out.
inline double probe_seconds(int threads) {
  if (threads <= 1) return probe_pass();
  std::vector<double> t(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&t, i] { t[static_cast<std::size_t>(i)] = probe_pass(); });
    }
  }
  return *std::max_element(t.begin(), t.end());
}

/// Per-component seed drawn from the command-line seed (splitmix64 of the
/// pair), so every generated input the library sees is a function of it.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-exact FNV-1a fold of a workload's outputs.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mix_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
};

/// The harness's own spans around its calls into the library: name, start,
/// end, parent and run id, kept in memory and written out at exit. Disabled
/// recorders cost one branch per scope.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into all(); -1 = top level
    int run = 0;      ///< job index within the process
  };

  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec), id_(rec.open(name)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

  void start_run(int run, bool enabled) {
    run_ = run;
    enabled_ = enabled;
    stack_.clear();
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What one job (one closed batch simulation) reports.
struct JobResult {
  double setup_s = 0.0;  ///< host time before the timed span
  double timed_s = 0.0;  ///< host time of the timed span
  double cpu_s = 0.0;    ///< CPU seconds of all threads in the timed span
  double sim_s = 0.0;    ///< simulated seconds covered by the timed span
  std::uint64_t digest = 0;
  /// Exact counts; identical across jobs of one seed.
  std::map<std::string, std::uint64_t> counts;
  /// Host-time per-layer values of this job (seconds unless named otherwise).
  std::map<std::string, double> times;
  /// Host-time samples pooled across jobs for percentiles.
  std::map<std::string, std::vector<double>> samples;
  /// probe_seconds() samples a long job took inside its timed span (their
  /// time is excluded from timed_s and cpu_s).
  std::vector<double> probes;
  /// Output invariants checked inside the job (name, passed).
  std::vector<std::pair<std::string, bool>> checks;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

/// A workload binds its seed-derived inputs once per process (untimed
/// reference runs included) and returns the job to repeat.
using Job = std::function<JobResult(SpanRecorder&)>;

struct Workload {
  const char* name;
  Job (*prepare)(std::uint64_t seed);
  int threads;  ///< busy threads while a job runs (the host probe uses as many)
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace perfbench
