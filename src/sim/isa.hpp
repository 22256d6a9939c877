#pragma once

#include <string_view>

namespace efd::sim::isa {

/// The instruction sets the dispatched kernels come in. One process-wide
/// choice, read once from the EFD_SIMD environment variable, drives every
/// layer that dispatches: the carrier kernels (grid::simd) and the uniform
/// block fill of the RNG engine (sim::Mt19937_64). EFD_SIMD=scalar therefore
/// forces the portable path everywhere at once.
enum class Level { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Whether this binary carries `level` and this CPU runs it: AVX2 means
/// x86-64 with AVX2 and FMA (cpuid, checked once), NEON means AArch64,
/// scalar is always available.
[[nodiscard]] bool available(Level level);

/// Pure selection logic (unit-testable): resolve an EFD_SIMD-style request
/// ("scalar" | "avx2" | "neon" | "auto" | "") against what is available.
/// Unknown names and unavailable levels fall back to the widest available
/// one ("auto"); "scalar" always honours the request.
[[nodiscard]] Level resolve(std::string_view want);

/// The process-wide level: EFD_SIMD resolved via resolve() on first use,
/// then memoized.
[[nodiscard]] Level active();

}  // namespace efd::sim::isa
