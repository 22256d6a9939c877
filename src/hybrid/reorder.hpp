#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/net/interface.hpp"
#include "src/sim/simulator.hpp"

namespace efd::hybrid {

namespace detail {

/// A sorted circular array keyed by `SeqOf(entry)` under plain unsigned `<`
/// (no serial-number arithmetic): the flat, allocation-free stand-in for a
/// std::map/std::set keyed by sequence. Capacity is a power of two that
/// grows lazily by doubling and is kept across clear(), so a steady stream
/// allocates nothing once the ring has reached its working size. Lookup is
/// a binary search; insert and erase shift toward the nearer end, so an
/// arrival at either end is O(1). Entries should be index-sized: a search
/// and a shift touch every entry they pass, so bulky payloads belong in a
/// side table the entry points into.
template <typename T, typename SeqOf>
class SeqRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }

  /// Logical index of the first entry whose sequence is >= `seq`.
  [[nodiscard]] std::size_t lower_bound(std::uint32_t seq) const {
    if (size_ == 0 || SeqOf{}((*this)[size_ - 1]) < seq) return size_;
    std::size_t lo = 0;
    std::size_t n = size_;
    while (n > 0) {
      const std::size_t half = n / 2;
      if (SeqOf{}((*this)[lo + half]) < seq) {
        lo += half + 1;
        n -= half + 1;
      } else {
        n = half;
      }
    }
    return lo;
  }
  /// True when the entry at logical index `i` (from lower_bound) is `seq`.
  [[nodiscard]] bool holds(std::size_t i, std::uint32_t seq) const {
    return i < size_ && SeqOf{}((*this)[i]) == seq;
  }

  /// Insert `v` at logical index `i`, keeping the order.
  void insert(std::size_t i, const T& v) {
    if (size_ == slots_.size()) grow();
    if (i < size_ - i) {
      head_ = (head_ - 1) & mask_;
      for (std::size_t k = 0; k < i; ++k) at(k) = at(k + 1);
    } else {
      for (std::size_t k = size_; k > i; --k) at(k) = at(k - 1);
    }
    at(i) = v;
    ++size_;
  }
  /// Remove the entry at logical index `i`.
  void erase(std::size_t i) {
    if (i < size_ - 1 - i) {
      for (std::size_t k = i; k > 0; --k) at(k) = at(k - 1);
      head_ = (head_ + 1) & mask_;
    } else {
      for (std::size_t k = i; k + 1 < size_; ++k) at(k) = at(k + 1);
    }
    --size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  T& at(std::size_t i) { return slots_[(head_ + i) & mask_]; }
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t k = 0; k < size_; ++k) bigger[k] = at(k);
    slots_.swap(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace detail

/// Destination-side packet re-sequencer: packets of one flow fan out over
/// two mediums with different latencies and arrive out of order; this
/// buffer releases them by the IP identification sequence, with a gap
/// timeout so a loss on one medium cannot stall the flow (§7.4's "simple
/// algorithm that checks the identification sequence of the IP header").
///
/// Failure semantics: when a sequence gap times out (a packet lost forever
/// on a failed medium), delivery skips past it; a copy of the skipped
/// packet arriving later — a straggler that survived a dead interface's
/// retransmission queue — is DROPPED and counted as a straggler. A copy of
/// a sequence that was already *delivered* (failover salvage, or a losing
/// copy under per-packet duplication) is DROPPED and counted as a
/// duplicate. The app layer therefore sees a strictly increasing sequence,
/// faults or not, and every fed packet lands in exactly one of
/// {delivered, straggler drop, duplicate drop}.
///
/// Diversity combining: the tagged `on_packet` overload records which
/// interface a copy arrived on; the first copy of a sequence to be
/// delivered is the "win" (reported through the win listener with its
/// tag), and every later copy of the same sequence is suppressed as a
/// duplicate — first-wins selection in the sense of Sung & Evans.
class ReorderBuffer {
 public:
  struct Config {
    /// How long one head-of-line gap may block delivery before it is
    /// abandoned (the failover gap timeout).
    sim::Time hold_timeout = sim::milliseconds(40);
    std::size_t max_buffered = 2048;
  };

  /// Called once per delivered packet with the tag of the winning copy
  /// (the interface index passed to the tagged `on_packet`). Untagged
  /// feeds (tag < 0) do not invoke the listener.
  using WinListener = std::function<void(const net::Packet&, int tag)>;

  ReorderBuffer(sim::Simulator& simulator, net::Interface::RxHandler deliver,
                Config config);
  ReorderBuffer(sim::Simulator& simulator, net::Interface::RxHandler deliver)
      : ReorderBuffer(simulator, std::move(deliver), Config{}) {}
  ReorderBuffer(const ReorderBuffer&) = delete;
  ReorderBuffer& operator=(const ReorderBuffer&) = delete;
  /// Disarms the pending hold timer — its callback captures `this`.
  ~ReorderBuffer() { timeout_.cancel(); }

  /// Feed a packet arriving from either interface.
  void on_packet(const net::Packet& p, sim::Time now) {
    on_packet(p, now, kUntagged);
  }
  /// Feed a packet together with the index of the member interface it
  /// arrived on; the tag of the winning copy is reported to the win
  /// listener at delivery time.
  void on_packet(const net::Packet& p, sim::Time now, int tag);

  /// Installs (or replaces) the per-delivery win listener.
  void set_win_listener(WinListener listener) { win_ = std::move(listener); }

  /// Adapter reset: drop everything buffered and return to the fresh
  /// (pre-warm-up) state; the next packet restarts sequence locking.
  /// Counters survive the reset.
  void clear();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Packets whose sequence gap was abandoned (gap timeout / overflow
  /// valve) before they arrived; dropped to preserve in-order delivery.
  [[nodiscard]] std::uint64_t stragglers_dropped() const { return straggler_drops_; }
  /// Stale copies of sequences that were already delivered (or already
  /// buffered): losing diversity copies and failover-salvage re-sends.
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return duplicate_drops_; }

 private:
  static constexpr int kUntagged = -1;

  /// One buffered copy plus the interface tag it arrived with.
  struct Buffered {
    net::Packet p;
    int tag;
  };
  /// A buffered copy's place in the ring: its sequence, and the slot of
  /// `slots_` holding the copy itself.
  struct BufferedRef {
    std::uint32_t seq;
    std::uint32_t slot;
  };
  struct SeqOfRef {
    std::uint32_t operator()(const BufferedRef& r) const { return r.seq; }
  };
  struct SeqOfSeq {
    std::uint32_t operator()(std::uint32_t s) const { return s; }
  };

  /// Buffer a copy unless its sequence is already waiting; false on a
  /// duplicate (the first-buffered copy wins).
  bool buffer(const net::Packet& p, int tag);
  void deliver(const net::Packet& p, int tag);
  void drop_duplicate();
  void drain();
  void abandon_through(std::uint32_t target);
  void arm_timeout();
  void on_timeout();
  void overflow_valve();

  sim::Simulator& sim_;
  net::Interface::RxHandler deliver_;
  WinListener win_;
  Config cfg_;
  /// Out-of-order copies, sorted by sequence; never more than
  /// max_buffered + 1 (the overflow valve runs after every insert). The
  /// ring orders 8-byte references; the copies stay put in `slots_`, whose
  /// free slots are listed in `free_slots_`.
  detail::SeqRing<BufferedRef, SeqOfRef> buffer_;
  std::vector<Buffered> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Sequences skipped by a lock-forward, sorted; the max_buffered largest
  /// are kept so a late arrival can be told apart from a duplicate of a
  /// delivered packet.
  detail::SeqRing<std::uint32_t, SeqOfSeq> abandoned_;
  std::uint32_t next_seq_ = 0;
  bool started_ = false;
  bool warmup_ = false;        ///< buffering before locking a start sequence
  bool blocked_ = false;       ///< a gap is currently blocking the head
  sim::Time block_start_{};    ///< when the current gap started blocking
  sim::EventHandle timeout_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t straggler_drops_ = 0;
  std::uint64_t duplicate_drops_ = 0;
};

}  // namespace efd::hybrid
