#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <utility>

namespace efd::grid {

/// Grow-only 64-byte-aligned double buffer — the storage behind
/// CarrierWorkspace. The per-carrier batch kernels (grid/simd.hpp) load and
/// store full vector registers; 64-byte alignment keeps every block load on
/// one cache line and lets the AVX2/NEON entries use aligned moves for the
/// whole structure-of-arrays workspace. The interface is the subset of
/// std::vector<double> the carrier hot paths use (resize / assign / data /
/// operator[] / span conversion); growth never shrinks capacity, so steady
/// state does zero allocations, matching the PR 1 workspace contract.
class AlignedVec {
 public:
  static constexpr std::size_t kAlign = 64;

  AlignedVec() = default;
  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;
  AlignedVec(AlignedVec&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        cap_(std::exchange(other.cap_, 0)) {}
  AlignedVec& operator=(AlignedVec&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  ~AlignedVec() { release(); }

  [[nodiscard]] double* data() { return data_; }
  [[nodiscard]] const double* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] double& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const double& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] double* begin() { return data_; }
  [[nodiscard]] double* end() { return data_ + size_; }
  [[nodiscard]] const double* begin() const { return data_; }
  [[nodiscard]] const double* end() const { return data_ + size_; }

  operator std::span<double>() { return {data_, size_}; }               // NOLINT
  operator std::span<const double>() const { return {data_, size_}; }   // NOLINT

  /// Grow capacity to at least `n` doubles (64-byte aligned), preserving the
  /// current contents. Never shrinks.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    auto* fresh = static_cast<double*>(
        ::operator new(n * sizeof(double), std::align_val_t{kAlign}));
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(double));
    release();
    data_ = fresh;
    cap_ = n;
  }

  /// Set the logical size; newly exposed elements are uninitialized (the
  /// kernels overwrite every slot before reading).
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  /// resize(n) then fill with `v` (the std::vector::assign the noise kernel
  /// used for its linear-power accumulator).
  void assign(std::size_t n, double v) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
  }

 private:
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kAlign});
    }
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Caller-owned scratch buffers for the allocation-free per-carrier query
/// variants of PowerGrid / PlcChannel. Multi-day trace generation calls the
/// per-carrier kernels millions of times; routing every query through a
/// workspace keeps the hot path free of std::vector allocations. Buffers are
/// structure-of-arrays, 64-byte aligned for the batch SIMD kernels, grow to
/// the band's carrier count on first use and are reused afterwards.
///
/// A workspace is NOT thread-safe: use one per thread (the channel layer
/// borrows thread_scratch<CarrierWorkspace>() for its own internal queries).
/// Debug builds trip an assert on concurrent or reentrant use via
/// CarrierWorkspace::Guard; release builds pay one relaxed atomic store per
/// guarded query.
struct CarrierWorkspace {
  AlignedVec att_db;    ///< attenuation_db output
  AlignedVec noise_db;  ///< noise_psd_db output
  AlignedVec power;     ///< linear-domain accumulator (noise kernel)
  AlignedVec snr_db;    ///< channel-layer SNR output

  /// Grow every buffer's capacity to `n` carriers in one shot, so a caller
  /// can front-load the (only) allocations before entering the hot loop.
  void reserve_carriers(std::size_t n) {
    att_db.reserve(n);
    noise_db.reserve(n);
    power.reserve(n);
    snr_db.reserve(n);
  }

  /// Reentrancy tripwire: each workspace-taking query holds a Guard for its
  /// duration. Two overlapping guards on one workspace — two threads, or a
  /// reentrant call chain sharing the thread_local scratch — assert in debug
  /// builds instead of silently corrupting the shared buffers.
  class Guard {
   public:
    explicit Guard(CarrierWorkspace& ws) : ws_(ws) {
#ifndef NDEBUG
      const bool was_in_use = ws_.in_use_.exchange(true, std::memory_order_acquire);
      assert(!was_in_use && "CarrierWorkspace used concurrently/reentrantly");
#else
      ws_.in_use_.store(true, std::memory_order_relaxed);
#endif
    }
    ~Guard() { ws_.in_use_.store(false, std::memory_order_release); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    CarrierWorkspace& ws_;
  };

 private:
  // Unconditional member so debug and release layouts agree.
  std::atomic<bool> in_use_{false};
};

/// The calling thread's instance of a scratch type — a CarrierWorkspace, or
/// a layer's own bundle of reusable buffers. Hot paths borrow it instead of
/// owning per-object buffers, so scratch memory scales with threads rather
/// than with links, and stays allocation-free once warm. Borrowers must not
/// hold it across a call that may borrow the same type again.
template <class Scratch>
Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace efd::grid
