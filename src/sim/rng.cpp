#include "src/sim/rng.hpp"

#include <algorithm>

namespace efd::sim {

namespace {
constexpr std::size_t kShift = 156;  // MT19937-64 m
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;

constexpr std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                                   std::uint64_t far) {
  const std::uint64_t y = (hi & kUpper) | (lo & kLower);
  return far ^ (y >> 1) ^ (-(y & 1) & kMatrix);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  std::size_t k = 0;
  for (; k < kN - kShift; ++k) {
    state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kN - 1; ++k) {
    state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kShift - kN]);
  }
  state_[kN - 1] = twist_word(state_[kN - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

void Rng::normal_fill(double* out, std::size_t n, double mean, double stddev) {
  // Polar method in rounds. A round makes as many attempts as values are
  // still missing (at most kBlock), two uniforms each. The one-at-a-time
  // loop makes every one of those attempts too, since it cannot finish
  // before it has that many acceptances; so a round can draw its uniforms
  // up front, keep the accepted pairs without a branch, and transform them
  // in a loop with no dependency between elements.
  constexpr std::size_t kBlock = 64;
  double u[2 * kBlock];
  double r2[kBlock];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t attempts = std::min(kBlock, n - done);
    for (std::size_t j = 0; j < 2 * attempts; ++j) u[j] = 2.0 * uniform() - 1.0;
    double* y = out + done;
    std::size_t accepted = 0;
    for (std::size_t j = 0; j < attempts; ++j) {
      const double px = u[2 * j];
      const double py = u[2 * j + 1];
      const double rr = px * px + py * py;
      y[accepted] = py;
      r2[accepted] = rr;
      accepted += (rr > 1.0 || rr == 0.0) ? 0 : 1;
    }
    for (std::size_t i = 0; i < accepted; ++i) {
      y[i] = y[i] * std::sqrt(-2 * std::log(r2[i]) / r2[i]) * stddev + mean;
    }
    done += accepted;
  }
}

}  // namespace efd::sim
