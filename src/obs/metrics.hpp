#pragma once

// efd::obs — low-overhead process-wide metrics (DESIGN.md §8).
//
// A MetricsRegistry of named counters, gauges, and fixed-bucket histograms.
// Writes go to thread-local shards, each with exactly one writer (the thread
// whose shard it is), so an update is a relaxed load plus a relaxed store on
// thread-private cache lines — no lock-prefixed RMW, no CAS loop — and
// ParallelRunner workers never contend. snapshot() merges every shard; a
// shard outlives its thread (the next new thread adopts it), so completed
// workers' counts survive into the merge. Call sites resolve a name to a
// stable id once (function-local static).
//
// Three cost tiers:
//  - EFD_OBS_ENABLED=0 at compile time: the EFD_* macros (obs.hpp) expand to
//    nothing — zero instructions, zero allocations.
//  - compiled in, runtime-disabled (set_enabled(false) or EFD_OBS=0 in the
//    environment): one relaxed atomic bool load + branch per call site.
//  - enabled: + one relaxed load and one relaxed store per cell on the
//    calling thread's shard.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/shard_pool.hpp"

#ifndef EFD_OBS_ENABLED
#define EFD_OBS_ENABLED 1
#endif

namespace efd::obs {

/// Fixed shard geometry: ids are slots in per-thread arrays, so registration
/// beyond the capacity is dropped (id -1, updates become no-ops) rather than
/// reallocating shards under concurrent writers.
inline constexpr int kMaxCounters = 192;
inline constexpr int kMaxGauges = 64;
inline constexpr int kMaxHistograms = 64;
/// Power-of-two buckets: bucket 0 holds v < 1, bucket i >= 1 holds
/// [2^(i-1), 2^i). Cheap to compute (bit_width, no libm) and wide enough for
/// the occupancy/size/index distributions the simulator records.
inline constexpr int kHistogramBuckets = 32;

struct CounterId { int index = -1; };
struct GaugeId { int index = -1; };
struct HistogramId { int index = -1; };

/// One thread's private slice of every metric. Owned by the registry:
/// heap-allocated when a thread first records and no exited thread's shard
/// is free, handed back to the registry at thread exit, and adopted (counts
/// and all) by the next new thread. Only the owning thread writes the cells;
/// they stay atomic so snapshot() may read them from any thread.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> histo_count{};
  std::array<std::atomic<double>, kMaxHistograms> histo_sum{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kMaxHistograms>
      histo_buckets{};
};

struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Point-in-time merge of all shards, sorted by name (deterministic for a
/// deterministic workload — the tests diff two runs' snapshots).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;

  /// Render as a JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, buckets}}}. `indent` spaces prefix
  /// every line after the first, so the block nests inside another document
  /// (the bench JSON embeds it this way). A non-empty `profile_json` (an
  /// already-rendered JSON object, see ProfileSnapshot::to_json) is embedded
  /// verbatim as a trailing "profile" key — snapshot_json() passes the
  /// profiler's fold so every exported snapshot carries the flamegraph.
  [[nodiscard]] std::string to_json(int indent = 0,
                                    std::string_view profile_json = {}) const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (registering on first use) a metric name. Cold path — call
  /// sites cache the result in a function-local static. Names must outlive
  /// the call (the macros pass string literals). Returns index -1 when the
  /// shard capacity for the kind is exhausted; updates through a -1 id are
  /// silently dropped.
  CounterId counter_id(std::string_view name);
  GaugeId gauge_id(std::string_view name);
  HistogramId histogram_id(std::string_view name);

  /// Merge every shard into one snapshot. Counters/histogram cells sum;
  /// gauges sum across live and recycled shards (each parallel worker
  /// simulates a disjoint world, so the sum is the fleet-wide value;
  /// single-threaded runs read back the last value set).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every cell of every shard (registered names are kept, ids remain
  /// valid). Tests use this to isolate workloads inside one process. Only
  /// call it while no other thread records: a shard's owner updates its
  /// cells with a plain load+store, which would overwrite a concurrent zero.
  void reset();

  /// The calling thread's shard: adopted from an exited thread when one is
  /// free, otherwise created and registered.
  Shard& shard();

  /// Shards allocated so far (live plus free). Bounded by the peak number
  /// of threads that recorded at once, not by how many ever did.
  [[nodiscard]] std::size_t shard_count() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::unordered_map<std::string_view, int> counter_index_;
  std::unordered_map<std::string_view, int> gauge_index_;
  std::unordered_map<std::string_view, int> histogram_index_;
  detail::ShardPool<Shard> pool_{mutex_};
};

namespace detail {
extern std::atomic<bool> g_enabled;
Shard& make_shard();
extern thread_local Shard* t_shard;
}  // namespace detail

/// Runtime master switch. Initialized from the EFD_OBS environment variable
/// (anything but "0" enables); flippable at runtime for A/B overhead runs.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

[[nodiscard]] inline Shard& this_thread_shard() {
  Shard* s = detail::t_shard;
  return s != nullptr ? *s : detail::make_shard();
}

// --- Hot-path update primitives (the EFD_* macros land here) --------------

namespace detail {
/// Owner-only increment: the calling thread is its shard's sole writer, so
/// a relaxed load+store is exact and needs no lock-prefixed RMW.
template <typename T>
inline void owner_add(std::atomic<T>& cell, T v) {
  cell.store(cell.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}
}  // namespace detail

inline void counter_add(CounterId id, std::uint64_t v = 1) {
  if (!enabled() || id.index < 0) return;
  detail::owner_add(
      this_thread_shard().counters[static_cast<std::size_t>(id.index)], v);
}

inline void gauge_set(GaugeId id, double v) {
  if (!enabled() || id.index < 0) return;
  this_thread_shard()
      .gauges[static_cast<std::size_t>(id.index)]
      .store(v, std::memory_order_relaxed);
}

/// Bucket index for a histogram observation (see kHistogramBuckets).
[[nodiscard]] inline int histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  constexpr double kMaxExact = 9.0e18;  // below 2^63; larger -> top bucket
  if (v >= kMaxExact) return kHistogramBuckets - 1;
  const int w = std::bit_width(static_cast<std::uint64_t>(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

inline void histogram_observe(HistogramId id, double v) {
  if (!enabled() || id.index < 0) return;
  Shard& s = this_thread_shard();
  const auto i = static_cast<std::size_t>(id.index);
  detail::owner_add(s.histo_count[i], std::uint64_t{1});
  detail::owner_add(s.histo_sum[i], v);
  detail::owner_add(
      s.histo_buckets[i][static_cast<std::size_t>(histogram_bucket(v))],
      std::uint64_t{1});
}

/// Convenience: full-registry snapshot rendered as JSON (the exporter the
/// bench JsonReporter and efd_cli consume).
[[nodiscard]] std::string snapshot_json(int indent = 0);

}  // namespace efd::obs
