// ReorderBuffer against a reference: a test-local copy of the node-based
// std::map/std::set resequencer the flat rings replaced, driven side by side
// with the real one through seeded random schedules (in-order runs, gaps,
// tagged and untagged duplicates, late stragglers, gap timeouts, a small
// max_buffered so the overflow valve fires, clear() mid-flow, sequences
// across the 2^32 wrap). Every delivery, win, counter, the occupancy
// histogram and the pending timer must match after every step. Plus an
// allocation pin on the valve-firing steady state. Includes
// alloc_count.hpp, so this binary owns the global operator new/delete
// replacement (one TU per binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "src/hybrid/reorder.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/rng.hpp"

namespace efd::hybrid {
namespace {

using efd::testsupport::AllocationWindow;

/// The std::map/std::set ReorderBuffer, kept verbatim in behaviour; it
/// counts overflows and occupancy observations locally instead of through
/// efd::obs, so the real buffer alone writes the registry.
class ReferenceReorder {
 public:
  using Config = ReorderBuffer::Config;

  ReferenceReorder(sim::Simulator& simulator, net::Interface::RxHandler deliver,
                   Config config)
      : sim_(simulator), deliver_(std::move(deliver)), cfg_(config) {}
  ReferenceReorder(const ReferenceReorder&) = delete;
  ReferenceReorder& operator=(const ReferenceReorder&) = delete;
  ~ReferenceReorder() { timeout_.cancel(); }

  void set_win_listener(ReorderBuffer::WinListener l) { win_ = std::move(l); }

  void on_packet(const net::Packet& p, sim::Time now, int tag) {
    if (!started_) {
      started_ = true;
      warmup_ = true;
      blocked_ = true;
      block_start_ = now;
      buffer_.emplace(p.seq, Buffered{p, tag});
      arm_timeout();
      return;
    }
    if (warmup_) {
      if (!buffer_.emplace(p.seq, Buffered{p, tag}).second) {
        ++duplicate_drops_;
        return;
      }
      overflow_valve();
      return;
    }
    if (p.seq < next_seq_) {
      const auto it = abandoned_.find(p.seq);
      if (it == abandoned_.end()) {
        ++duplicate_drops_;
        return;
      }
      abandoned_.erase(it);
      ++straggler_drops_;
      return;
    }
    if (buffer_.empty() && p.seq == next_seq_) {
      deliver(p, tag);
      ++next_seq_;
      blocked_ = false;
      return;
    }
    if (!buffer_.emplace(p.seq, Buffered{p, tag}).second) {
      ++duplicate_drops_;
      return;
    }
    occupancy_.push_back(buffer_.size());
    const std::uint32_t before = next_seq_;
    drain();
    if (buffer_.empty()) {
      blocked_ = false;
      return;
    }
    if (!blocked_ || next_seq_ != before) {
      blocked_ = true;
      block_start_ = now;
    }
    arm_timeout();
    overflow_valve();
  }

  void clear() {
    timeout_.cancel();
    buffer_.clear();
    abandoned_.clear();
    next_seq_ = 0;
    started_ = false;
    warmup_ = false;
    blocked_ = false;
    block_start_ = sim::Time{};
  }

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  std::uint64_t timeouts_ = 0;
  std::uint64_t straggler_drops_ = 0;
  std::uint64_t duplicate_drops_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t delivered_ = 0;
  std::vector<std::size_t> occupancy_;

 private:
  struct Buffered {
    net::Packet p;
    int tag;
  };

  void deliver(const net::Packet& p, int tag) {
    deliver_(p, sim_.now());
    ++delivered_;
    if (win_ && tag >= 0) win_(p, tag);
  }

  void abandon_through(std::uint32_t target) {
    std::uint32_t from = next_seq_;
    if (target - from > cfg_.max_buffered) {
      from = target - static_cast<std::uint32_t>(cfg_.max_buffered);
    }
    for (std::uint32_t s = from; s != target; ++s) abandoned_.insert(s);
    while (abandoned_.size() > cfg_.max_buffered) {
      abandoned_.erase(abandoned_.begin());
    }
  }

  void overflow_valve() {
    if (buffer_.size() <= cfg_.max_buffered) return;
    ++overflows_;
    warmup_ = false;
    abandon_through(buffer_.begin()->first);
    next_seq_ = buffer_.begin()->first;
    drain();
    if (buffer_.empty()) blocked_ = false;
  }

  void drain() {
    auto it = buffer_.begin();
    while (it != buffer_.end() && it->first == next_seq_) {
      deliver(it->second.p, it->second.tag);
      it = buffer_.erase(it);
      ++next_seq_;
    }
  }

  void arm_timeout() {
    if (timeout_.pending()) return;
    const sim::Time waited = sim_.now() - block_start_;
    const sim::Time remaining =
        waited < cfg_.hold_timeout ? cfg_.hold_timeout - waited : sim::Time{};
    timeout_ = sim_.after_inline(remaining, [this] { on_timeout(); });
  }

  void on_timeout() {
    if (buffer_.empty()) {
      blocked_ = false;
      warmup_ = false;
      return;
    }
    if (!warmup_ && sim_.now() - block_start_ < cfg_.hold_timeout) {
      arm_timeout();
      return;
    }
    if (!warmup_) ++timeouts_;
    warmup_ = false;
    abandon_through(buffer_.begin()->first);
    next_seq_ = buffer_.begin()->first;
    drain();
    if (!buffer_.empty()) {
      block_start_ = sim_.now();
      arm_timeout();
    } else {
      blocked_ = false;
    }
  }

  sim::Simulator& sim_;
  net::Interface::RxHandler deliver_;
  ReorderBuffer::WinListener win_;
  Config cfg_;
  std::map<std::uint32_t, Buffered> buffer_;
  std::set<std::uint32_t> abandoned_;
  std::uint32_t next_seq_ = 0;
  bool started_ = false;
  bool warmup_ = false;
  bool blocked_ = false;
  sim::Time block_start_{};
  sim::EventHandle timeout_;
};

using Event = std::tuple<std::uint32_t, int, std::int64_t>;  // seq, tag, t_ns

/// One side of the comparison: a buffer on its own simulator, logging
/// deliveries and wins.
template <typename Buffer>
struct Side {
  explicit Side(ReorderBuffer::Config cfg)
      : rb(sim,
           [this](const net::Packet& p, sim::Time t) {
             delivered.emplace_back(p.seq, -1, t.ns());
           },
           cfg) {
    rb.set_win_listener([this](const net::Packet& p, int tag) {
      wins.emplace_back(p.seq, tag, sim.now().ns());
    });
  }

  void feed(const net::Packet& p, int tag) { rb.on_packet(p, sim.now(), tag); }

  /// The engine's scheduling state: events ever scheduled plus the sorted
  /// pending (t, seq) set, tombstones included.
  [[nodiscard]] std::pair<std::uint64_t, std::vector<std::pair<std::int64_t, std::uint64_t>>>
  timers() const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> pending;
    sim.visit_pending([&](std::int64_t t, std::uint64_t s) { pending.emplace_back(t, s); });
    std::sort(pending.begin(), pending.end());
    return {sim.sequence(), pending};
  }

  sim::Simulator sim;
  Buffer rb;
  std::vector<Event> delivered;
  std::vector<Event> wins;
};

struct Schedule {
  std::uint64_t seed = 1;
  std::uint32_t first_seq = 0;
  std::size_t max_buffered = 2048;
  int steps = 4000;
};

/// How often a schedule reached the rarer paths (reference counts).
struct Reached {
  std::uint64_t stragglers = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overflows = 0;

  Reached& operator+=(const Reached& o) {
    stragglers += o.stragglers;
    timeouts += o.timeouts;
    overflows += o.overflows;
    return *this;
  }
};

/// Drive both implementations through one seeded schedule, comparing the
/// full observable state after every step.
Reached run_differential(const Schedule& s) {
  SCOPED_TRACE(testing::Message() << "seed " << s.seed << " first_seq " << s.first_seq
                                  << " max_buffered " << s.max_buffered);
  sim::Rng rng{s.seed};
  const auto roll = [&rng](int a, int b) {
    return static_cast<int>(rng.uniform_int(a, b));
  };
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::microseconds(roll(200, 4000));
  cfg.max_buffered = s.max_buffered;

  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  Side<ReorderBuffer> real(cfg);
  Side<ReferenceReorder> ref(cfg);

  std::uint32_t next = s.first_seq;       // the source's next fresh sequence
  std::vector<std::uint32_t> sent;        // recently fed sequences
  std::vector<std::uint32_t> held_back;   // skipped, may arrive late
  net::Packet p;
  for (int step = 0; step < s.steps; ++step) {
    const int action = roll(0, 99);
    const int tag = roll(-1, 1);  // -1: the untagged overload
    bool feed = true;
    if (action < 40) {  // in-order
      p.seq = next++;
    } else if (action < 55) {  // gap: hold back a run, maybe for good
      const int skip = roll(1, 12);
      for (int k = 0; k < skip; ++k) {
        if (roll(0, 2) == 0) held_back.push_back(next);
        ++next;
      }
      p.seq = next++;
    } else if (action < 70) {  // late arrival of a held-back sequence
      if (held_back.empty()) continue;
      const auto i = static_cast<std::size_t>(
          roll(0, static_cast<int>(held_back.size()) - 1));
      p.seq = held_back[i];
      held_back.erase(held_back.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (action < 82) {  // duplicate of something recent
      if (sent.empty()) continue;
      const int back = std::min<int>(static_cast<int>(sent.size()), 64);
      p.seq = sent[sent.size() - 1 - static_cast<std::size_t>(roll(0, back - 1))];
    } else if (action < 98) {  // time passes: lets gap timers fire
      const sim::Time dt = sim::microseconds(roll(0, 6000));
      real.sim.run_until(real.sim.now() + dt);
      ref.sim.run_until(ref.sim.now() + dt);
      feed = false;
    } else {  // adapter reset mid-flow
      real.rb.clear();
      ref.rb.clear();
      feed = false;
    }
    if (feed) {
      if (tag < 0) {
        real.rb.on_packet(p, real.sim.now());
      } else {
        real.feed(p, tag);
      }
      ref.feed(p, tag);
      sent.push_back(p.seq);
      if (sent.size() > 256) sent.erase(sent.begin());
    }
    const bool same = real.delivered == ref.delivered && real.wins == ref.wins &&
                      real.rb.buffered() == ref.rb.buffered() &&
                      real.rb.timeouts() == ref.rb.timeouts_ &&
                      real.rb.stragglers_dropped() == ref.rb.straggler_drops_ &&
                      real.rb.duplicates_dropped() == ref.rb.duplicate_drops_ &&
                      real.timers() == ref.timers();
    if (!same) {
      ADD_FAILURE() << "diverged at step " << step << " (seq " << p.seq << ")";
      return {};
    }
  }
  // Let every pending gap resolve, then compare once more.
  real.sim.run_until(real.sim.now() + sim::seconds(1));
  ref.sim.run_until(ref.sim.now() + sim::seconds(1));
  EXPECT_EQ(real.delivered, ref.delivered);
  EXPECT_EQ(real.wins, ref.wins);
  EXPECT_EQ(real.rb.timeouts(), ref.rb.timeouts_);
  EXPECT_EQ(real.timers(), ref.timers());

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("hybrid.reorder.delivered"), ref.rb.delivered_);
  EXPECT_EQ(snap.counter("hybrid.reorder.overflows"), ref.rb.overflows_);
  EXPECT_EQ(snap.counter("hybrid.reorder.timeouts"), ref.rb.timeouts_);
  EXPECT_EQ(snap.counter("hybrid.reorder.straggler_drops"), ref.rb.straggler_drops_);
  EXPECT_EQ(snap.counter("hybrid.reorder.duplicate_drops"), ref.rb.duplicate_drops_);
  obs::HistogramData occupancy;
  for (const std::size_t n : ref.rb.occupancy_) {
    ++occupancy.count;
    occupancy.sum += static_cast<double>(n);
    ++occupancy.buckets[static_cast<std::size_t>(
        obs::histogram_bucket(static_cast<double>(n)))];
  }
  const obs::HistogramData* h = snap.histogram("hybrid.reorder.occupancy");
  EXPECT_NE(h, nullptr);
  if (h != nullptr) {
    EXPECT_EQ(h->count, occupancy.count);
    EXPECT_EQ(h->sum, occupancy.sum);
    EXPECT_EQ(h->buckets, occupancy.buckets);
  }

  EXPECT_GT(ref.rb.delivered_, 0u);
  EXPECT_GT(ref.rb.duplicate_drops_, 0u);
  return {ref.rb.straggler_drops_, ref.rb.timeouts_, ref.rb.overflows_};
}

TEST(ReorderDifferential, MatchesTheMapReferenceAtTheDefaultBound) {
  Reached reached;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    reached += run_differential({seed, 0, 2048, 3000});
  }
  // The schedules must reach the paths they are meant to compare.
  EXPECT_GT(reached.stragglers, 0u);
  EXPECT_GT(reached.timeouts, 0u);
}

TEST(ReorderDifferential, MatchesTheMapReferenceWithTheOverflowValveFiring) {
  Reached reached;
  for (std::uint64_t seed = 101; seed <= 140; ++seed) {
    const auto bound = static_cast<std::size_t>(1 + seed % 9);
    reached += run_differential({seed, 1000, bound, 3000});
  }
  EXPECT_GT(reached.stragglers, 0u);
  EXPECT_GT(reached.timeouts, 0u);
  EXPECT_GT(reached.overflows, 0u);
}

TEST(ReorderDifferential, MatchesTheMapReferenceAcrossTheSequenceWrap) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  Reached reached;
  for (std::uint64_t seed = 201; seed <= 230; ++seed) {
    const auto bound = static_cast<std::size_t>(seed % 2 == 0 ? 2048 : 2 + seed % 7);
    const auto lead = static_cast<std::uint32_t>(seed % 50);
    reached += run_differential({seed, kMax - lead, bound, 2500});
  }
  EXPECT_GT(reached.stragglers, 0u);
  EXPECT_GT(reached.timeouts, 0u);
  EXPECT_GT(reached.overflows, 0u);
}

TEST(AllocationPins, ValveFiringSteadyStateIsAllocationFree) {
  // The saturated-source receiver: a gap every few sequences keeps the
  // buffer at max_buffered, so the overflow valve fires on almost every
  // arrival and abandons the skipped sequences. After warm-up (the rings
  // have grown to their working size, the lazy metric registrations are
  // done) neither the valve nor the gap timer may allocate.
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  sim::Simulator sim;
  ReorderBuffer::Config cfg;
  cfg.max_buffered = 256;
  std::uint64_t delivered = 0;
  ReorderBuffer rb(sim, [&](const net::Packet&, sim::Time) { ++delivered; }, cfg);
  net::Packet p;
  std::uint32_t seq = 0;
  const auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      p.seq = seq;
      seq += 1 + static_cast<std::uint32_t>(i % 7 == 0 ? 4 : 0);  // gaps
      rb.on_packet(p, sim.now());
      sim.run_until(sim.now() + sim::microseconds(30.0));
    }
  };
  feed(4000);
  const std::uint64_t overflows0 =
      registry.snapshot().counter("hybrid.reorder.overflows");
  const std::uint64_t delivered0 = delivered;
  {
    AllocationWindow window;
    feed(20000);
    EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  }
  EXPECT_GT(registry.snapshot().counter("hybrid.reorder.overflows") - overflows0, 1000u);
  EXPECT_GT(delivered - delivered0, 19000u);
}

}  // namespace
}  // namespace efd::hybrid
