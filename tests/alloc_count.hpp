#pragma once

// Shared counting-allocator fixture for allocation-regression tests: replaces
// the global operator new/delete with versions that count every heap
// allocation in the process, so a test can pin a code path to zero (or N)
// allocations. Include from exactly ONE translation unit per test binary —
// replacement allocation functions must not be inline, so a second including
// TU in the same binary would violate the one-definition rule at link time.
//
// Used by obs_disabled_test (the EFD_* macros leave zero residue when
// compiled out) and sim_event_engine_test (steady-state schedule+dispatch of
// inline-capture events performs no heap allocation).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace efd::testsupport {

/// Heap allocations since process start (every operator new, any thread).
inline std::atomic<std::uint64_t> g_allocations{0};

/// Bytes requested from operator new since process start (requested, not
/// rounded-up — enough to pin "how much" as well as "how often").
inline std::atomic<std::uint64_t> g_allocated_bytes{0};

/// Requests of at least kLargeBlockBytes since process start: pins "no big
/// buffer is copied" without pinning the exact small-block count.
inline constexpr std::size_t kLargeBlockBytes = 4096;
inline std::atomic<std::uint64_t> g_large_allocations{0};

/// Allocations performed while an instance is alive. Construct, run the code
/// under test, then read `count()` / `bytes()`.
class AllocationWindow {
 public:
  AllocationWindow()
      : start_(g_allocations.load()),
        start_bytes_(g_allocated_bytes.load()),
        start_large_(g_large_allocations.load()) {}
  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load() - start_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return g_allocated_bytes.load() - start_bytes_;
  }
  /// Allocations of kLargeBlockBytes or more.
  [[nodiscard]] std::uint64_t large_count() const {
    return g_large_allocations.load() - start_large_;
  }

 private:
  std::uint64_t start_;
  std::uint64_t start_bytes_;
  std::uint64_t start_large_;
};

}  // namespace efd::testsupport

// GCC 12 sees the malloc inside the replaced operator new, the free inside
// the replaced operator delete, and reports the pair as mismatched
// (-Wmismatched-new-delete): a false positive for replacement allocation
// functions, silenced here only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  efd::testsupport::g_allocations.fetch_add(1, std::memory_order_relaxed);
  efd::testsupport::g_allocated_bytes.fetch_add(size,
                                                std::memory_order_relaxed);
  if (size >= efd::testsupport::kLargeBlockBytes) {
    efd::testsupport::g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
