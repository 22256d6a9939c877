#pragma once

// efd::obs — per-thread shards that outlive their threads, shared by the
// metrics and profiler registries.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace efd::obs::detail {

/// Owns one registry's per-thread shards. A thread's first record leases a
/// shard: one an exited thread handed back when there is one, else a new
/// one. The lease ends at thread exit and returns the shard, so the pool
/// holds as many shards as threads recorded at once, not as many as ever
/// ran. Shards are never freed, so a reader holding the registry mutex can
/// walk all of them (`all()`); a recycled shard keeps its totals, which is
/// what a snapshot folding every shard wants.
template <class Shard>
class ShardPool {
 public:
  /// `mutex` is the registry's: it guards the pool and orders an exiting
  /// owner's last writes before the adopting thread's first.
  explicit ShardPool(std::mutex& mutex) : mutex_(mutex) {}

  /// The calling thread's shard, cached in its thread-local `slot`.
  Shard& lease(Shard*& slot) {
    if (slot != nullptr) return *slot;
    Shard* s = nullptr;
    {
      const std::scoped_lock lock(mutex_);
      if (!t_lease_ended && !free_.empty()) {
        s = free_.back();
        free_.pop_back();
      } else {
        // A thread recording again after its lease ended (from a later
        // thread_local destructor) keeps this shard for good.
        all_.push_back(std::make_unique<Shard>());
        s = all_.back().get();
      }
    }
    slot = s;
    if (!t_lease_ended) {
      thread_local Lease lease{*this, slot};
    }
    return *s;
  }

  /// Every shard made so far, live and free. Read under the registry mutex.
  [[nodiscard]] const std::vector<std::unique_ptr<Shard>>& all() const { return all_; }

 private:
  /// Hands the shard back at thread exit.
  struct Lease {
    ShardPool& pool;
    Shard*& slot;
    ~Lease() {
      t_lease_ended = true;
      if (Shard* s = std::exchange(slot, nullptr)) {
        const std::scoped_lock lock(pool.mutex_);
        pool.free_.push_back(s);
      }
    }
  };

  /// Set when this thread's lease ended. Trivially destructible, so it
  /// stays readable during the rest of thread teardown.
  static inline thread_local bool t_lease_ended = false;

  std::mutex& mutex_;
  std::vector<std::unique_ptr<Shard>> all_;
  std::vector<Shard*> free_;  ///< shards of exited threads, LIFO
};

}  // namespace efd::obs::detail
