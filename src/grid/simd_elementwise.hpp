#pragma once

// The five element-wise carrier kernels of the dispatch table (simd.hpp), as
// plain loops. simd.cpp, simd_avx2.cpp and simd_neon.cpp each include this
// header and point their table entries at their own copy, so each TU's flags
// pick the vector width: the compiler vectorises these loops to SSE2, AVX2 or
// NEON with the same per-element operations, and -ffp-contract=off on the
// vector TUs keeps it from fusing them into FMAs, so every copy is
// bit-identical to the scalar entry.
//
// The loops have internal linkage on purpose. As inline functions or
// templates they would be one symbol the linker may take from any TU, e.g.
// the -mavx2 copy for the scalar entry, which would then fault on CPUs
// without AVX2. The grid_simd_elementwise_symbols_are_local ctest checks
// with nm that every copy stays local.

#include <cstddef>

namespace efd::grid::simd {
namespace {

void elementwise_affine_n(double add, double slope, const double* x, double* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add + slope * x[i];
}

void elementwise_accumulate_notch_n(double broadband, double depth, const double* s,
                                    double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = s[i];
    acc[i] += broadband + depth * v * v;
  }
}

void elementwise_accumulate_scaled_n(double scale, const double* x, double* acc,
                                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += scale * x[i];
}

void elementwise_assemble_snr_n(double c, const double* a, const double* b, double* out,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = c - a[i] - b[i];
}

void elementwise_shift_n(const double* in, double offset, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] - offset;
}

}  // namespace
}  // namespace efd::grid::simd
