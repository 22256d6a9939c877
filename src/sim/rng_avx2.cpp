// AVX2 block fill of the MT19937-64 engine and the polar round of
// Rng::normal_fill (rng.hpp). The only sim TU compiled with -mavx2 (plus
// -ffp-contract=off, so the scalar tails cannot fuse into an FMA);
// Mt19937_64::signed_fill_avx2() and Rng::polar_round_avx2() hand them out
// only after the cpuid check of sim::isa.
//
// Every output is equal, bit for bit, to the portable entry's: the twist
// computes the same words, tempering is integer work, the canonical
// conversion below rounds exactly once, where Rng::canonical does, and the
// round evaluates r2 and polar_below with the same operations in the same
// order.
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "src/sim/rng.hpp"

namespace efd::sim {
namespace {

inline __m256i load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline __m256i set1(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Rng::canonical per lane, then 2 * r - 1. Each 32-bit half becomes a
/// double exactly through the 2^52 magic number (its bits OR'd into the
/// mantissa of 2^52, then 2^52 subtracted); hi * 2^32 + lo then rounds once,
/// like the scalar conversion, and the scalings by 2^-64 and 2 are exact.
inline __m256d signed_canonical(__m256i u) {
  const __m256i magic = set1(0x4330000000000000ULL);  // bits of 2^52
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(u, 32), magic)), two52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_blend_epi32(u, magic, 0b10101010)), two52);
  const __m256d d = _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p32)), lo);
  __m256d r = _mm256_mul_pd(d, _mm256_set1_pd(0x1p-64));
  const __m256d one = _mm256_set1_pd(1.0);
  r = _mm256_blendv_pd(_mm256_set1_pd(1.0 - 0x1p-53), r,
                       _mm256_cmp_pd(r, one, _CMP_LT_OQ));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), r), one);
}

}  // namespace

void Mt19937_64::signed_fill_avx2_impl(Mt19937_64& engine, double* out,
                                       std::size_t n) {
  std::uint64_t* s = engine.state_.data();
  const __m256i upper = set1(kUpper);
  const __m256i matrix = set1(kMatrix);
  const __m256i one = set1(1);
  // twist_word on four consecutive words.
  const auto twist4 = [&](__m256i hi, __m256i lo, __m256i far) {
    const __m256i y =
        _mm256_or_si256(_mm256_and_si256(hi, upper), _mm256_andnot_si256(upper, lo));
    const __m256i odd =
        _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, one));
    return _mm256_xor_si256(_mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
                            _mm256_and_si256(odd, matrix));
  };
  const __m256i m29 = set1(0x5555555555555555ULL);
  const __m256i m17 = set1(0x71d67fffeda60000ULL);
  const __m256i m37 = set1(0xfff7eee000000000ULL);
  while (n > 0) {
    if (engine.next_ >= kN) {
      // Four words per step. kShift = 156 = 39 * 4, so no block straddles
      // k = kShift: below it the far words k+156..k+159 are still the old
      // state, from it on they are the already updated k-156..k-153, as in
      // the scalar order. Words 308..311 stay scalar.
      std::size_t k = 0;
      for (; k < kN - kShift; k += 4) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + k),
                            twist4(load(s + k), load(s + k + 1), load(s + k + kShift)));
      }
      for (; k + 4 < kN; k += 4) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(s + k),
            twist4(load(s + k), load(s + k + 1), load(s + k + kShift - kN)));
      }
      for (; k < kN - 1; ++k) s[k] = twist_word(s[k], s[k + 1], s[k + kShift - kN]);
      s[kN - 1] = twist_word(s[kN - 1], s[0], s[kShift - 1]);
      engine.next_ = 0;
    }
    const std::size_t take = std::min(n, kN - engine.next_);
    const std::uint64_t* src = s + engine.next_;
    std::size_t j = 0;
    for (; j + 4 <= take; j += 4) {
      __m256i z = load(src + j);
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), m29));
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), m17));
      z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), m37));
      z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
      _mm256_storeu_pd(out + j, signed_canonical(z));
    }
    for (; j < take; ++j) out[j] = 2.0 * Rng::canonical(temper(src[j])) - 1.0;
    engine.next_ += take;
    out += take;
    n -= take;
  }
}

namespace {

/// For each 4-bit acceptance mask, the _mm256_permutevar8x32_epi32 index
/// that moves the accepted double lanes, in order, to the front.
constexpr auto kCompact = [] {
  std::array<std::array<std::int32_t, 8>, 16> lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int to = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane & 1) == 0) continue;
      lut[mask][2 * to] = 2 * lane;
      lut[mask][2 * to + 1] = 2 * lane + 1;
      ++to;
    }
  }
  return lut;
}();

}  // namespace

std::size_t Rng::polar_round_avx2_impl(const double* u, std::size_t attempts,
                                       double* y, double* r2, const double* slack,
                                       double scaled_var, double mean,
                                       std::uint32_t* keep, std::size_t* kept) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d var = _mm256_set1_pd(scaled_var);
  const __m256d means = _mm256_set1_pd(mean);
  std::size_t accepted = 0;
  std::size_t k = 0;
  std::size_t j = 0;
  for (; j + 4 <= attempts; j += 4) {
    // Pairs j..j+3 as [x0 y0 x1 y1] [x2 y2 x3 y3]. hadd sums each pair's
    // squares in the scalar order (x² + y²) but yields lanes 0, 2, 1, 3, as
    // does unpackhi for the y's; permute 0xD8 restores 0, 1, 2, 3.
    const __m256d a = _mm256_loadu_pd(u + 2 * j);
    const __m256d b = _mm256_loadu_pd(u + 2 * j + 4);
    const __m256d rr = _mm256_permute4x64_pd(
        _mm256_hadd_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b)), 0xD8);
    const __m256d yy = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xD8);
    const int ok = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(rr, one, _CMP_LE_OQ),
                      _mm256_cmp_pd(rr, zero, _CMP_NEQ_OQ)));
    // Accepted lanes to the front; the lanes past them are scratch that the
    // next step overwrites (or that lie below `attempts`, unread).
    const __m256i to_front = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        kCompact[static_cast<std::size_t>(ok)].data()));
    __m256d yc = _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(yy), to_front));
    const __m256d rc = _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(rr), to_front));
    const auto taken =
        static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(ok)));
    if (slack != nullptr) {
      // polar_below on the compacted lanes, in its operation order. slack
      // has an entry for every attempt, so the four-lane load stays in it.
      const __m256d s = _mm256_loadu_pd(slack + accepted);
      const __m256d bound = _mm256_mul_pd(
          _mm256_mul_pd(_mm256_mul_pd(yc, yc),
                        _mm256_mul_pd(_mm256_sub_pd(one, rc), _mm256_add_pd(one, rc))),
          var);
      const __m256d limit = _mm256_mul_pd(_mm256_mul_pd(s, s), _mm256_mul_pd(rc, rc));
      const __m256d below = _mm256_and_pd(_mm256_cmp_pd(s, zero, _CMP_GT_OQ),
                                          _mm256_cmp_pd(bound, limit, _CMP_LT_OQ));
      yc = _mm256_blendv_pd(yc, means, below);
      // On a converged link most pairs drop out, so this rarely iterates.
      for (unsigned left = ~static_cast<unsigned>(_mm256_movemask_pd(below)) &
                           ((1u << taken) - 1u);
           left != 0; left &= left - 1) {
        keep[k++] = static_cast<std::uint32_t>(accepted) +
                    static_cast<std::uint32_t>(__builtin_ctz(left));
      }
    }
    _mm256_storeu_pd(y + accepted, yc);
    _mm256_storeu_pd(r2 + accepted, rc);
    accepted += taken;
  }
  std::size_t tail_kept = 0;
  const std::size_t tail =
      polar_round_scalar(u + 2 * j, attempts - j, y + accepted, r2 + accepted,
                         slack != nullptr ? slack + accepted : nullptr, scaled_var,
                         mean, keep + k, &tail_kept);
  if (slack != nullptr) {
    for (std::size_t t = k; t < k + tail_kept; ++t) {
      keep[t] += static_cast<std::uint32_t>(accepted);
    }
    *kept = k + tail_kept;
  }
  return accepted + tail;
}

}  // namespace efd::sim
