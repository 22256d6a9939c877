#pragma once

// efd::obs — scoped hierarchical profiler (DESIGN.md §13).
//
// EFD_PROF_SCOPE("name") opens a named period on the calling thread; nested
// scopes form a call tree. Each thread owns a fixed-capacity shard (same
// shard pattern as MetricsRegistry): a node pool holding one cell per
// distinct (parent, name) pair, aggregated online — a scope exit is two
// steady-clock reads plus two relaxed RMWs, never an allocation — and a
// shadow stack of open frames. ProfileRegistry::snapshot() folds every
// shard into one flamegraph-style tree (name, self/total ns, count,
// per-thread breakdown), which snapshot_json() embeds as "profile" so every
// BENCH_*.json carries the attribution of the run it measured.
//
// Open (not yet exited) frames are included in a snapshot with their
// elapsed-so-far, so the root of a bench whose outermost scope is still
// open reports ~the process wall clock. A snapshot taken while other
// threads are mid-scope is race-free (all hot fields are atomics) but
// approximate; quiescent snapshots are exact and deterministic in structure
// and counts.
//
// Three cost tiers, mirroring the metrics layer:
//  - EFD_OBS_ENABLED=0 at compile time: EFD_PROF_SCOPE expands to nothing
//    and ProfScope collapses to an empty class — zero instructions, no
//    profiler symbols in the binary.
//  - compiled in, runtime-disabled (set_prof_enabled(false) or EFD_PROF=0
//    in the environment): one relaxed atomic load + branch per scope.
//  - enabled: + two steady_clock reads, a sibling scan (first visit only a
//    mutex), and two relaxed fetch_adds.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/shard_pool.hpp"

#ifndef EFD_OBS_ENABLED
#define EFD_OBS_ENABLED 1
#endif

namespace efd::obs {

/// Fixed shard geometry, like the metrics shards: per-thread pools so the
/// hot path never resizes under concurrent snapshot readers. Scopes beyond
/// either limit are counted in `dropped` and otherwise ignored.
inline constexpr int kMaxProfNodes = 256;   ///< distinct (parent, name) cells
inline constexpr int kMaxProfDepth = 48;    ///< open scopes per thread

/// Nanoseconds since the process-wide profiling epoch (first use).
[[nodiscard]] std::int64_t prof_now_ns();

/// One thread's private call tree. Cells are append-only; linkage is
/// published with release stores and traversed with acquire loads, so a
/// snapshot from another thread sees a consistent (if slightly stale) tree.
struct ProfShard {
  struct Cell {
    const char* name = nullptr;  ///< set once before the cell is published
    std::int32_t parent = -1;    ///< cell index; -1 = thread root level
    std::atomic<std::int32_t> first_child{-1};
    std::atomic<std::int32_t> next_sibling{-1};
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::uint64_t> count{0};
  };
  struct OpenFrame {
    std::atomic<std::int32_t> cell{-1};
    std::atomic<std::int64_t> start_ns{0};
  };

  std::array<Cell, static_cast<std::size_t>(kMaxProfNodes)> cells{};
  std::atomic<std::int32_t> root_head{-1};  ///< first top-level cell
  std::int32_t n_cells = 0;                 ///< guarded by registry mutex
  std::array<OpenFrame, static_cast<std::size_t>(kMaxProfDepth)> stack{};
  std::atomic<std::int32_t> depth{0};
  std::atomic<std::uint64_t> dropped{0};
};

/// Per-shard slice of a folded node (shard index = shard creation order: 0
/// is the first thread that ever profiled, usually main; a shard recycled
/// from an exited thread sums every thread that held it).
struct ProfileThreadSlice {
  int thread = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// One node of the folded tree. Children are sorted by name; nodes from
/// different threads (or different string literals with equal content)
/// merge by name content along the path from the root.
struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;       ///< completed periods (open ones excluded)
  std::int64_t total_ns = 0;     ///< includes elapsed of still-open periods
  std::int64_t self_ns = 0;      ///< total minus children totals, >= 0
  std::vector<ProfileThreadSlice> threads;
  std::vector<ProfileNode> children;
};

/// Point-in-time fold of every shard. The synthetic root's total is the
/// busiest thread's top-level total — wall-clock-like when the outermost
/// scope of the main thread covers the run — while `cpu_total_ns` sums all
/// threads.
struct ProfileSnapshot {
  ProfileNode root;              ///< name "(root)", children = top scopes
  std::int64_t cpu_total_ns = 0;
  std::uint64_t dropped = 0;
  bool enabled = false;
  int threads = 0;  ///< shards folded: the most threads that profiled at once

  /// Walk "a/b/c" paths from the root; nullptr when absent.
  [[nodiscard]] const ProfileNode* find(std::string_view path) const;

  /// Render as a JSON object. `indent` spaces prefix every line after the
  /// first, as in MetricsSnapshot::to_json, so the block nests inside the
  /// metrics snapshot document.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

class ProfileRegistry {
 public:
  static ProfileRegistry& instance();

  ProfileRegistry(const ProfileRegistry&) = delete;
  ProfileRegistry& operator=(const ProfileRegistry&) = delete;

  /// Fold every shard ever created into one tree (see ProfileSnapshot).
  [[nodiscard]] ProfileSnapshot snapshot() const;

  /// Zero every cell's totals/counts and re-base open frames to now; cell
  /// linkage (registered names) is kept. Tests use this to isolate
  /// workloads inside one process.
  void reset();

  /// The calling thread's shard: adopted from an exited thread when one is
  /// free, otherwise created and registered.
  ProfShard& shard();

  /// Shards allocated so far (live plus free). Bounded by the peak number
  /// of threads that profiled at once, not by how many ever did.
  [[nodiscard]] std::size_t shard_count() const;

  /// Cold path of ProfScope: find-or-create the child of the current open
  /// cell named `name` (pointer match on the fast path, content match under
  /// the mutex on first visit) and push an open frame. Returns the cell
  /// index, or -1 when the scope was dropped (pool or stack exhausted).
  std::int32_t enter(ProfShard& s, const char* name, std::int64_t start_ns);

  /// Close the innermost open frame of `s` against cell `cell`.
  void leave(ProfShard& s, std::int32_t cell, std::int64_t start_ns,
             std::int64_t end_ns);

 private:
  ProfileRegistry() = default;

  std::int32_t find_or_create(ProfShard& s, std::int32_t parent,
                              const char* name);

  mutable std::mutex mutex_;
  detail::ShardPool<ProfShard> pool_{mutex_};
};

namespace prof_detail {
extern std::atomic<bool> g_enabled;
extern thread_local ProfShard* t_shard;
ProfShard& make_shard();
}  // namespace prof_detail

/// Runtime switch, initialized from the EFD_PROF environment variable
/// (anything but "0" enables); independent of the metrics switch so the
/// profiler can be A/B-toggled without losing counters.
[[nodiscard]] inline bool prof_enabled() {
  return prof_detail::g_enabled.load(std::memory_order_relaxed);
}
void set_prof_enabled(bool on);

[[nodiscard]] inline ProfShard& this_thread_prof_shard() {
  ProfShard* s = prof_detail::t_shard;
  return s != nullptr ? *s : prof_detail::make_shard();
}

#if EFD_OBS_ENABLED

/// RAII scope: one period in the calling thread's call tree. `name` must
/// outlive the registry (the macro passes string literals; the carrier
/// kernels pass their static dispatch-entry names). Enabled-ness is
/// snapshotted at construction so a mid-scope toggle cannot unbalance the
/// shadow stack.
class ProfScope {
 public:
  explicit ProfScope(const char* name) {
    if (!prof_enabled()) return;
    start_ns_ = prof_now_ns();
    shard_ = &this_thread_prof_shard();
    cell_ = ProfileRegistry::instance().enter(*shard_, name, start_ns_);
  }
  ~ProfScope() {
    if (shard_ != nullptr && cell_ >= 0) {
      ProfileRegistry::instance().leave(*shard_, cell_, start_ns_,
                                        prof_now_ns());
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfShard* shard_ = nullptr;
  std::int32_t cell_ = -1;
  std::int64_t start_ns_ = 0;
};

#else  // !EFD_OBS_ENABLED — zero-size scope class, compiles to nothing.

class ProfScope {
 public:
  explicit ProfScope(const char*) {}
};

#endif  // EFD_OBS_ENABLED

}  // namespace efd::obs
