// AVX2 block fill of the MT19937-64 engine (rng.hpp). The only sim TU
// compiled with -mavx2 (plus -ffp-contract=off, so the scalar tail cannot
// fuse into an FMA); Mt19937_64::signed_fill_avx2() hands it out only after
// the cpuid check of sim::isa.
//
// Every output is equal, bit for bit, to the portable entry's: the twist
// computes the same words, tempering is integer work, and the canonical
// conversion below rounds exactly once, where Rng::canonical does.
#include <immintrin.h>

#include <algorithm>
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

}  // namespace efd::sim
