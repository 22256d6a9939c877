#include "src/sim/rng.hpp"

#include <algorithm>

#include "src/sim/isa.hpp"

namespace efd::sim {

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

void Mt19937_64::signed_fill_scalar(Mt19937_64& engine, double* out,
                                    std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = 2.0 * Rng::canonical(engine()) - 1.0;
}

Mt19937_64::SignedFill Mt19937_64::signed_fill_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return isa::available(isa::Level::kAvx2) ? &signed_fill_avx2_impl : nullptr;
#else
  return nullptr;
#endif
}

Mt19937_64::SignedFill Mt19937_64::active_signed_fill() {
  static const SignedFill fill =
      isa::active() == isa::Level::kAvx2 ? signed_fill_avx2() : &signed_fill_scalar;
  return fill;
}

void Rng::normal_fill(double* out, std::size_t n, double mean, double stddev,
                      Mt19937_64::SignedFill fill) {
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
    fill(engine_, u, 2 * attempts);
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
