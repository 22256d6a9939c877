// AVX2+FMA entry of the carrier-kernel dispatch table (simd.hpp). This is
// the only TU compiled with -mavx2 -mfma (plus -ffp-contract=off so the
// compiler cannot fuse plain-loop multiply-adds into FMAs and drift from the
// scalar entry); selection guards it behind the cpuid check of sim::isa.
//
// Precision contract (DESIGN.md §12): the element-wise kernels (affine,
// notch, scaled accumulate, SNR assembly, shift) are the plain loops of
// simd_elementwise.hpp, which the compiler vectorises to AVX2 width here in
// the scalar entry's operation order, so they are bit-identical to it lane
// for lane. linear_to_db_n replaces libm log2 with a 4-lane polynomial whose
// relative error is below 1e-14 — two orders of magnitude inside the
// DiffRunner's 1e-12 dB contract — and the BER-weighted sum keeps
// vector-lane partial accumulators, which reassociates the sum within the
// PBerr tolerance. The bit loader is integer work on exact compares and is
// equal to the scalar entry in every output.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/grid/db_units.hpp"
#include "src/grid/simd.hpp"
#include "src/grid/simd_elementwise.hpp"

namespace efd::grid::simd {
namespace {

// --- 4-lane log2 ------------------------------------------------------------

constexpr double kTwoOverLn2 = 2.8853900817779268147198494;  // 2 / ln(2)

/// log2(x) per lane for positive, finite, normal x (the carrier power domain:
/// accumulated linear powers are >= 1). Split x = m * 2^e with m in [1, 2),
/// fold m into [sqrt2/2, sqrt2) so log2(m) stays centred on zero (no
/// catastrophic cancellation for x near 1), then
/// log2(m) = (2/ln2) * atanh(s) with s = (m-1)/(m+1), |s| <= 0.1716, via the
/// odd series up to s^19 (truncation < 3e-17 relative).
inline __m256d v_log2(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  // Biased exponent lanes are in [1, 2046]: compress the low 32 bits of each
  // 64-bit lane and convert via cvtepi32_pd.
  const __m256i e64 = _mm256_srli_epi64(bits, 52);
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i e32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e64, perm));
  __m256d e = _mm256_sub_pd(_mm256_cvtepi32_pd(e32), _mm256_set1_pd(1023.0));
  const __m256i mant_mask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m256i one_bits = _mm256_set1_epi64x(0x3FF0000000000000LL);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, mant_mask), one_bits));
  const __m256d sqrt2 = _mm256_set1_pd(1.4142135623730951);
  const __m256d big = _mm256_cmp_pd(m, sqrt2, _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  e = _mm256_add_pd(e, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d s2 = _mm256_mul_pd(s, s);
  // Even/odd Horner chains in s^4, so the dependency chain is half as deep
  // as a straight ladder (the FMA ladder's latency, not its throughput,
  // limits this kernel).
  const __m256d s4 = _mm256_mul_pd(s2, s2);
  __m256d pe = _mm256_set1_pd(1.0 / 17.0);
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 13.0));
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 9.0));
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 5.0));
  pe = _mm256_fmadd_pd(pe, s4, one);
  __m256d po = _mm256_set1_pd(1.0 / 19.0);
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 15.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 11.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 7.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 3.0));
  const __m256d p = _mm256_fmadd_pd(s2, po, pe);
  return _mm256_fmadd_pd(_mm256_mul_pd(s, p),
                         _mm256_set1_pd(kTwoOverLn2), e);
}

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// --- kernels ---------------------------------------------------------------
// Tails: the log2 and gather kernels route the final partial block through
// the same 4-lane code on padded copies, so an element's value never depends
// on its position in the array.

void a_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  const __m256d c = _mm256_set1_pd(kLog2ToDb);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i)), c);
    const __m256d r1 = _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i + 4)), c);
    _mm256_storeu_pd(out + i, r0);
    _mm256_storeu_pd(out + i + 4, r1);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i)), c));
  }
  if (i < n) {
    alignas(32) double in[4] = {1.0, 1.0, 1.0, 1.0};
    alignas(32) double tmp[4];
    std::memcpy(in, lin + i, (n - i) * sizeof(double));
    _mm256_store_pd(tmp, _mm256_mul_pd(v_log2(_mm256_load_pd(in)), c));
    std::memcpy(out + i, tmp, (n - i) * sizeof(double));
  }
}

void a_ber_weighted_sum_n(const InterpTableView& lut, const std::int32_t* row_off,
                          const double* bits, const double* snr_db, double gain_db,
                          std::size_t n, double* weighted_ber, double* total_bits) {
  const __m256d vgain = _mm256_set1_pd(gain_db);
  const __m256d vmin = _mm256_set1_pd(lut.min_db);
  // Multiplying by the reciprocal step instead of dividing can move pos by
  // an ulp; a flipped cell at a boundary changes the interpolated BER by at
  // most one cell's curvature, far inside the PBerr tolerance.
  const __m256d vinvstep = _mm256_set1_pd(1.0 / lut.step_db);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vlast = _mm256_set1_pd(static_cast<double>(lut.size - 1));
  // Clamping the cell index to size-2 makes the pos >= last case read the
  // last cell with frac 1.0 instead of gathering one past the row's end.
  const __m256d vmaxcell = _mm256_set1_pd(static_cast<double>(lut.size - 2));
  __m256d wb = _mm256_setzero_pd();
  __m256d tb = _mm256_setzero_pd();

  const auto block = [&](const double* snr4, const std::int32_t* row4,
                         const double* bits4) {
    const __m256d eff = _mm256_add_pd(_mm256_loadu_pd(snr4), vgain);
    __m256d pos = _mm256_mul_pd(_mm256_sub_pd(eff, vmin), vinvstep);
    pos = _mm256_max_pd(pos, vzero);
    pos = _mm256_min_pd(pos, vlast);
    __m256d cell = _mm256_floor_pd(pos);
    cell = _mm256_min_pd(cell, vmaxcell);
    const __m256d frac = _mm256_sub_pd(pos, cell);
    const __m128i idx = _mm256_cvtpd_epi32(cell);
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row4));
    const __m128i base = _mm_add_epi32(rows, idx);
    // Each lane needs the adjacent pair table[k], table[k+1] (k <= row end
    // minus one after the size-2 clamp), so four 128-bit pair loads plus
    // unpacks are cheaper than two hardware gathers on every AVX2 core.
    alignas(16) std::int32_t k4[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(k4), base);
    const __m128d p0 = _mm_loadu_pd(lut.table + k4[0]);
    const __m128d p1 = _mm_loadu_pd(lut.table + k4[1]);
    const __m128d p2 = _mm_loadu_pd(lut.table + k4[2]);
    const __m128d p3 = _mm_loadu_pd(lut.table + k4[3]);
    const __m256d v0 = _mm256_set_m128d(_mm_unpacklo_pd(p2, p3),
                                        _mm_unpacklo_pd(p0, p1));
    const __m256d v1 = _mm256_set_m128d(_mm_unpackhi_pd(p2, p3),
                                        _mm_unpackhi_pd(p0, p1));
    const __m256d v =
        _mm256_add_pd(v0, _mm256_mul_pd(frac, _mm256_sub_pd(v1, v0)));
    const __m256d b = _mm256_loadu_pd(bits4);
    wb = _mm256_add_pd(wb, _mm256_mul_pd(v, b));
    tb = _mm256_add_pd(tb, b);
  };

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) block(snr_db + i, row_off + i, bits + i);
  if (i < n) {
    // Padded final block: pad lanes carry bits 0, so they contribute an
    // exact +0.0 to both accumulators.
    alignas(32) double snr4[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(16) std::int32_t row4[4] = {0, 0, 0, 0};
    alignas(32) double bits4[4] = {0.0, 0.0, 0.0, 0.0};
    std::memcpy(snr4, snr_db + i, (n - i) * sizeof(double));
    std::memcpy(row4, row_off + i, (n - i) * sizeof(std::int32_t));
    std::memcpy(bits4, bits + i, (n - i) * sizeof(double));
    block(snr4, row4, bits4);
  }
  *weighted_ber = hsum(wb);
  *total_bits = hsum(tb);
}

// --- bit loading (exact contract) ------------------------------------------

std::int64_t a_bit_load_n(const BitLoadTable& table, const double* snr_db,
                          double margin_db, std::size_t n, std::uint8_t* level,
                          std::int32_t* row_off, double* bits) {
  __m256d thresholds[BitLoadTable::kLevels - 1];
  for (std::size_t k = 0; k < BitLoadTable::kLevels - 1; ++k) {
    thresholds[k] = _mm256_set1_pd(table.thresholds[k]);
  }
  const __m256i weights =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(table.bits.data()));
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i low_bytes =
      _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m128i row_len = _mm_set1_epi32(table.row_len);
  const __m256d margin = _mm256_set1_pd(margin_db);
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // A cleared threshold sets its compare lane to all-ones, -1 as an int64,
    // so subtracting the masks counts them. _CMP_GE_OQ is false on NaN, like
    // the scalar `>=`.
    const __m256d x = _mm256_sub_pd(_mm256_loadu_pd(snr_db + i), margin);
    __m256i count = _mm256_setzero_si256();
    for (const __m256d& t : thresholds) {
      count = _mm256_sub_epi64(count,
                               _mm256_castpd_si256(_mm256_cmp_pd(x, t, _CMP_GE_OQ)));
    }
    // Counts are 0..7: pack the four low dwords, then use them as the
    // permute index into the eight-entry bit table.
    const __m256i m = _mm256_permutevar8x32_epi32(count, low_dwords);
    const __m128i m4 = _mm256_castsi256_si128(m);
    const __m128i b4 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(weights, m));
    const int packed = _mm_cvtsi128_si32(_mm_shuffle_epi8(m4, low_bytes));
    std::memcpy(level + i, &packed, sizeof(packed));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row_off + i),
                     _mm_mullo_epi32(m4, row_len));
    _mm256_storeu_pd(bits + i, _mm256_cvtepi32_pd(b4));
    total = _mm256_add_epi64(total, _mm256_cvtepi32_epi64(b4));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), total);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         detail::bit_load_n_scalar(table, snr_db + i, margin_db, n - i, level + i,
                                   row_off + i, bits + i);
}

/// Sixteen carriers per step against every boundary, in the scalar entry's
/// operations: |x - b| by clearing the sign bit, and _mm256_min_pd(d, gap),
/// which is `d < gap ? d : gap` exactly as the scalar loop writes it, NaN
/// included. Four independent minimum chains hide the min latency.
void a_bit_load_reach_n(const BitLoadTable& table, const double* margins_db,
                        std::size_t n_margins, const double* snr_db, std::size_t n,
                        double* reach) {
  const detail::ReachBoundaries b =
      detail::reach_boundaries(table, margins_db, n_margins);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d scale = _mm256_set1_pd(b.scale);
  const __m256d ulps = _mm256_set1_pd(0x1p-44);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const auto store = [&](std::size_t at, __m256d x, __m256d gap) {
    const __m256d slack =
        _mm256_mul_pd(_mm256_add_pd(_mm256_andnot_pd(sign, x), scale), ulps);
    _mm256_storeu_pd(reach + at, _mm256_sub_pd(gap, slack));
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_loadu_pd(snr_db + i);
    const __m256d x1 = _mm256_loadu_pd(snr_db + i + 4);
    const __m256d x2 = _mm256_loadu_pd(snr_db + i + 8);
    const __m256d x3 = _mm256_loadu_pd(snr_db + i + 12);
    __m256d g0 = inf;
    __m256d g1 = inf;
    __m256d g2 = inf;
    __m256d g3 = inf;
    for (std::size_t k = 0; k < b.count; ++k) {
      const __m256d at = _mm256_broadcast_sd(&b.at[k]);
      g0 = _mm256_min_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(x0, at)), g0);
      g1 = _mm256_min_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(x1, at)), g1);
      g2 = _mm256_min_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(x2, at)), g2);
      g3 = _mm256_min_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(x3, at)), g3);
    }
    store(i, x0, g0);
    store(i + 4, x1, g1);
    store(i + 8, x2, g2);
    store(i + 12, x3, g3);
  }
  if (i < n) {
    detail::bit_load_reach_n_scalar(table, margins_db, n_margins, snr_db + i, n - i,
                                    reach + i);
  }
}

constexpr CarrierKernels kAvx2 = {
    "avx2",
    &a_linear_to_db_n,
    &elementwise_affine_n,
    &elementwise_accumulate_notch_n,
    &elementwise_accumulate_scaled_n,
    &elementwise_assemble_snr_n,
    &elementwise_shift_n,
    &a_ber_weighted_sum_n,
    &a_bit_load_n,
    &a_bit_load_reach_n,
};

}  // namespace

namespace detail {
const CarrierKernels* avx2_kernels_impl() { return &kAvx2; }
}  // namespace detail

}  // namespace efd::grid::simd
