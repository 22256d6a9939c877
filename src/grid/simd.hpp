#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace efd::grid::simd {

/// View of a row-interpolated lookup table (the BER LUT of plc/modulation):
/// `rows` rows of `size` doubles, row-major, sampled every `step_db` starting
/// at `min_db`. A batch kernel gathers two neighbouring samples per element
/// and interpolates, exactly like the scalar `plc::uncoded_ber`.
struct InterpTableView {
  const double* table = nullptr;  ///< [rows][size], row-major
  std::int32_t rows = 0;
  std::int32_t size = 0;
  double min_db = 0.0;
  double step_db = 1.0;
};

/// The bit loader's constellation table (plc::kRequiredSnrDb,
/// plc::kBitsPerSymbol) in the layout bit_load_n takes: level 0 is "off",
/// level m >= 1 needs an SNR of at least thresholds[m - 1].
struct BitLoadTable {
  static constexpr std::size_t kLevels = 8;
  std::array<double, kLevels - 1> thresholds{};  ///< strictly increasing
  std::array<std::int32_t, kLevels> bits{};      ///< bit weight per level
  std::int32_t row_len = 0;  ///< BER-LUT row length: row offset = level * row_len
};

/// One interchangeable set of *batch* carrier-domain kernels — the
/// structure-of-arrays counterpart of `efd::testkit::CarrierMathImpl`. The
/// hot per-carrier loops of the channel stack (attenuation assembly, noise
/// accumulation and its linear->dB conversion, SNR assembly, bit loading,
/// BER-LUT reduction) route through the table returned by
/// `active_kernels()`, so a SIMD implementation is one more entry selected
/// at runtime: no `#ifdef` forks at call sites, every variant lives in
/// every binary and can be differentially checked against the others
/// (testkit DiffRunner).
///
/// Kernel contracts (all sizes in elements, buffers may overlap only where
/// a kernel reads and writes the same array):
///  - linear_to_db_n:   out[i] = log2(lin[i]) * 10*log10(2)   (lin[i] > 0,
///                      normal; the carrier power domain never underflows)
///  - affine_n:         out[i] = add + slope * x[i]
///  - accumulate_notch_n: acc[i] += broadband + depth * s[i]^2
///  - accumulate_scaled_n: acc[i] += scale * x[i]
///  - assemble_snr_n:   out[i] = c - a[i] - b[i]
///  - shift_n:          out[i] = in[i] - offset   (in == out allowed)
///  - ber_weighted_sum_n: per element, row = row_off[i] (premultiplied row
///    index * lut.size), clamped-lerp lookup of lut at snr[i] + gain_db,
///    then *weighted_ber += value * bits[i], *total_bits += bits[i].
///  - bit_load_n:       per element, level[i] = the number of table
///    thresholds that snr_db[i] - margin_db is at or above (NaN clears
///    none), row_off[i] = level[i] * table.row_len, bits[i] =
///    table.bits[level[i]]; returns the sum of the bit weights. One rung of
///    the estimator's margin ladder (plc::ToneMap::rebuild_from_snr).
///  - bit_load_reach_n: per element, how far snr_db[i] may move without
///    changing its bit_load_n level at any of the `n_margins` margins:
///    reach[i] = min over the boundaries b = thresholds[j] + margins_db[k]
///    of |snr_db[i] - b|, minus the rounding slack 2^-44 * (|snr_db[i]| +
///    B) with B = max|thresholds| + max|margins_db| (DESIGN.md §7.1). For
///    every d with |d| < reach[i], bit_load_n gives snr_db[i] + d and
///    snr_db[i] + 0.0 the same level at each of those margins. NaN and
///    infinite inputs give NaN; a non-positive reach promises nothing.
///    n_margins <= kMaxReachMargins.
///
/// Two contract classes. The float kernels above: the scalar entry
/// reproduces the original fast-path loops operation for operation
/// (bit-identical figures under EFD_SIMD=scalar). The five element-wise
/// ones are one plain-loop source (simd_elementwise.hpp) compiled into every
/// entry, so every entry matches the scalar one bit for bit; the vector
/// linear_to_db_n and ber_weighted_sum_n may reassociate sums and use FMA,
/// and are gated by the DiffRunner tolerance contract instead (DESIGN.md
/// §11/§12). bit_load_n and bit_load_reach_n are exact: every entry must
/// return and write exactly what the scalar entry does, for every input
/// including NaN, infinities and signed zeros, so switching entries never
/// changes a tone map.
struct CarrierKernels {
  const char* name;
  void (*linear_to_db_n)(const double* lin, double* out, std::size_t n);
  void (*affine_n)(double add, double slope, const double* x, double* out,
                   std::size_t n);
  void (*accumulate_notch_n)(double broadband, double depth, const double* s,
                             double* acc, std::size_t n);
  void (*accumulate_scaled_n)(double scale, const double* x, double* acc,
                              std::size_t n);
  void (*assemble_snr_n)(double c, const double* a, const double* b, double* out,
                         std::size_t n);
  void (*shift_n)(const double* in, double offset, double* out, std::size_t n);
  void (*ber_weighted_sum_n)(const InterpTableView& lut,
                             const std::int32_t* row_off, const double* bits,
                             const double* snr_db, double gain_db, std::size_t n,
                             double* weighted_ber, double* total_bits);
  std::int64_t (*bit_load_n)(const BitLoadTable& table, const double* snr_db,
                             double margin_db, std::size_t n, std::uint8_t* level,
                             std::int32_t* row_off, double* bits);
  void (*bit_load_reach_n)(const BitLoadTable& table, const double* margins_db,
                           std::size_t n_margins, const double* snr_db, std::size_t n,
                           double* reach);
};

/// Most margins one bit_load_reach_n call takes (the estimator's ladder).
inline constexpr std::size_t kMaxReachMargins = 4;

namespace detail {
/// The scalar entry's bit_load_n. Vector entries finish their tails with
/// it; an entry without a vector version of it points here.
std::int64_t bit_load_n_scalar(const BitLoadTable& table, const double* snr_db,
                               double margin_db, std::size_t n, std::uint8_t* level,
                               std::int32_t* row_off, double* bits);

/// bit_load_reach_n's boundaries, distinct and ascending, and its slack
/// scale B: the set-up every entry of it shares.
struct ReachBoundaries {
  std::array<double, (BitLoadTable::kLevels - 1) * kMaxReachMargins> at{};
  std::size_t count = 0;
  double scale = 0.0;
};
ReachBoundaries reach_boundaries(const BitLoadTable& table, const double* margins_db,
                                 std::size_t n_margins);

/// The scalar entry's bit_load_reach_n (vector tails, NEON entry).
void bit_load_reach_n_scalar(const BitLoadTable& table, const double* margins_db,
                             std::size_t n_margins, const double* snr_db,
                             std::size_t n, double* reach);
}  // namespace detail

/// The portable scalar entry (always available).
[[nodiscard]] const CarrierKernels& scalar_kernels();

/// AVX2+FMA / NEON entries: null when the binary was not compiled with the
/// implementation or the CPU lacks the feature. Exposed so tests and the
/// DiffRunner can exercise every compiled-in entry explicitly.
[[nodiscard]] const CarrierKernels* avx2_kernels();
[[nodiscard]] const CarrierKernels* neon_kernels();

/// Every entry usable on this machine (scalar first). Differential tests
/// iterate this: each entry must agree with the naive reference within the
/// DiffRunner tolerance contract.
[[nodiscard]] std::span<const CarrierKernels* const> available_kernels();

/// Pure selection logic (unit-testable): the entry of the level
/// sim::isa::resolve(want) picks for an EFD_SIMD-style request ("scalar" |
/// "avx2" | "neon" | "auto" | ""). Unknown names and unavailable
/// implementations fall back to the best available entry ("auto");
/// "scalar" always honours the request.
[[nodiscard]] const CarrierKernels& select_kernels(std::string_view want);

/// The process-wide selection: the entry of sim::isa::active(), the
/// EFD_SIMD override every dispatching layer shares. Records the chosen entry in
/// the `carrier_math.impl` efd::obs gauge (0 scalar, 1 avx2, 2 neon) so every
/// BENCH_*.json / --metrics snapshot names the code path it measured.
[[nodiscard]] const CarrierKernels& active_kernels();

/// Stable index of an entry for metrics (0 scalar, 1 avx2, 2 neon).
[[nodiscard]] int impl_index(const CarrierKernels& k);
[[nodiscard]] int active_impl_index();
[[nodiscard]] const char* active_impl_name();

}  // namespace efd::grid::simd
