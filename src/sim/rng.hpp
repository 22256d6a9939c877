#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace efd::sim {

/// MT19937-64 (Matsumoto & Nishimura), seeded and tempered exactly like
/// `std::mt19937_64`, so every stream matches the standard engine output for
/// output (pinned by tests/sim_rng_test.cpp). The twist applies the matrix
/// as `-(y & 1) & A` instead of a branch on the low bit, which keeps the
/// refill loop free of data-dependent branches.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kN = 312;

  explicit Mt19937_64(result_type seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ >= kN) twist();
    return temper(state_[next_++]);
  }

  /// A block fill: writes, for the engine's next `n` outputs u in order,
  /// `2 * Rng::canonical(u) - 1` — bit for bit what `n` calls of
  /// `2.0 * rng.uniform() - 1.0` return — and leaves the engine where those
  /// calls would.
  using SignedFill = void (*)(Mt19937_64& engine, double* out, std::size_t n);

  /// The portable entry: one output at a time.
  static void signed_fill_scalar(Mt19937_64& engine, double* out, std::size_t n);

  /// The AVX2 entry (rng_avx2.cpp): twists four words per step and tempers
  /// and converts four outputs per step, straight from the state array. Null
  /// when the binary lacks it or the CPU cannot run it (sim::isa).
  [[nodiscard]] static SignedFill signed_fill_avx2();

  /// The entry of sim::isa::active(): EFD_SIMD=scalar forces the portable
  /// one, as it does for the carrier kernels.
  [[nodiscard]] static SignedFill active_signed_fill();

 private:
  static constexpr std::size_t kShift = 156;  // MT19937-64 m
  static constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  static constexpr result_type twist_word(result_type hi, result_type lo,
                                          result_type far) {
    const result_type y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrix);
  }

  static constexpr result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  void twist();
  static void signed_fill_avx2_impl(Mt19937_64& engine, double* out, std::size_t n);

  // No alignas: an Rng, and so this state, is embedded in every estimator
  // and MAC; the vector entry uses unaligned loads instead.
  std::array<result_type, kN> state_;
  std::size_t next_ = kN;
};

/// Seeded random-number source. Every stochastic component takes an `Rng`
/// (or forks one) so that whole experiments are reproducible from a single
/// seed. `fork` derives an independent, deterministic substream, which keeps
/// results stable when unrelated components add or remove draws.
///
/// Stream contract: every draw returns, bit for bit, what the libstdc++
/// distribution of the same name returns on a `std::mt19937_64` seeded with
/// `engine_seed()` — a fresh distribution object per call, so `normal`
/// keeps only one value of each polar-method pair. The doubles come from the same
/// canonical uniform as `std::generate_canonical<double, 53>`, computed
/// without its long-double arithmetic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_base_(mix(seed)), engine_(seed_base_) {}

  /// Derive an independent substream for component `stream`.
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    return Rng{seed_base_ ^ mix(0x9e3779b97f4a7c15ULL * (stream + 1))};
  }

  /// The seed of this stream's engine: `std::mt19937_64{engine_seed()}`
  /// produces the same outputs.
  [[nodiscard]] std::uint64_t engine_seed() const { return seed_base_; }

  /// The [0, 1) double `std::generate_canonical<double, 53>` makes of one
  /// 64-bit engine output: double(u) * 2^-64, clamped below 1.
  [[nodiscard]] static double canonical(std::uint64_t u) {
    // u is converted as hi * 2^32 + lo: both halves are exact, so the sum
    // rounds once, exactly like the unsigned conversion, but without its
    // branch. u within 2^10 of 2^64 rounds up to 1.0, which is clamped to
    // nextafter(1.0, 0.0) as generate_canonical does.
    const auto hi = static_cast<std::uint32_t>(u >> 32);
    const auto lo = static_cast<std::uint32_t>(u);
    const double d = static_cast<double>(hi) * 0x1p32 + static_cast<double>(lo);
    const double r = d * 0x1p-64;
    return r < 1.0 ? r : 1.0 - 0x1p-53;
  }

  /// Uniform double in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform double in [a, b).
  double uniform(double a, double b) { return uniform() * (b - a) + a; }

  /// Uniform integer in [a, b] inclusive.
  std::int64_t uniform_int(std::int64_t a, std::int64_t b) {
    return std::uniform_int_distribution<std::int64_t>{a, b}(engine_);
  }

  double normal(double mean, double stddev) {
    double y = 0.0;
    const double r2 = polar_pair(y);
    return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
  }

  /// `n` normal draws into `out`, equal bit for bit and in order to `n`
  /// calls of `normal(mean, stddev)`, without the per-draw rejection branch
  /// and with the log/sqrt transforms of a block free to overlap. The
  /// uniforms come in blocks from Mt19937_64::active_signed_fill().
  void normal_fill(double* out, std::size_t n, double mean, double stddev) {
    normal_fill(out, n, mean, stddev, Mt19937_64::active_signed_fill());
  }

  /// Same, drawing the uniforms through an explicit fill entry, so tests
  /// can pin each one.
  void normal_fill(double* out, std::size_t n, double mean, double stddev,
                   Mt19937_64::SignedFill fill);

  /// Exponential with the given mean (not rate).
  double exponential_mean(double mean) {
    return -std::log(1.0 - uniform()) / (1.0 / mean);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Log-normal such that the *linear-scale* mean is `mean` with spread
  /// factor `sigma_log` in natural-log units.
  double lognormal(double mean, double sigma_log) {
    const double mu = std::log(mean) - 0.5 * sigma_log * sigma_log;
    return std::exp(sigma_log * normal(0.0, 1.0) + mu);
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: decorrelates adjacent seeds.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// The polar method's rejection loop: returns r^2 = x^2 + y^2 in (0, 1]
  /// and stores y, the coordinate a fresh std::normal_distribution returns
  /// (it saves x for a second call that never comes).
  double polar_pair(double& y) {
    double x = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return r2;
  }

  std::uint64_t seed_base_ = 0;
  Mt19937_64 engine_;
};

}  // namespace efd::sim
