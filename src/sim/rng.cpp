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

std::size_t Rng::polar_round_scalar(const double* u, std::size_t attempts, double* y,
                                    double* r2, const double* slack, double scaled_var,
                                    double mean, std::uint32_t* keep,
                                    std::size_t* kept) {
  std::size_t accepted = 0;
  for (std::size_t j = 0; j < attempts; ++j) {
    const double px = u[2 * j];
    const double py = u[2 * j + 1];
    const double rr = px * px + py * py;
    y[accepted] = py;
    r2[accepted] = rr;
    accepted += (rr > 1.0 || rr == 0.0) ? 0 : 1;
  }
  if (slack != nullptr) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < accepted; ++i) {
      const bool below = polar_below(y[i], r2[i], scaled_var, slack[i]);
      keep[k] = static_cast<std::uint32_t>(i);
      y[i] = below ? mean : y[i];
      k += below ? 0 : 1;
    }
    *kept = k;
  }
  return accepted;
}

Rng::PolarRound Rng::polar_round_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return isa::available(isa::Level::kAvx2) ? &polar_round_avx2_impl : nullptr;
#else
  return nullptr;
#endif
}

Rng::PolarRound Rng::active_polar_round() {
  static const PolarRound round =
      isa::active() == isa::Level::kAvx2 ? polar_round_avx2() : &polar_round_scalar;
  return round;
}

void Rng::normal_fill(double* out, std::size_t n, double mean, double stddev,
                      Mt19937_64::SignedFill fill, const double* slack,
                      PolarRound round) {
  // Polar method in rounds. A round makes as many attempts as values are
  // still missing (at most kBlock), two uniforms each. The one-at-a-time
  // loop makes every one of those attempts too, since it cannot finish
  // before it has that many acceptances; so a round can draw its uniforms
  // up front, keep the accepted pairs without a branch, and transform them
  // in a loop with no dependency between elements.
  constexpr std::size_t kBlock = 64;
  double u[2 * kBlock];
  double r2[kBlock];
  std::uint32_t keep[kBlock];
  // The sift's bound needs a normal-range variance: at 2^-800 and above, a
  // nonzero left-hand side of polar_below cannot underflow, so its
  // rounding argument holds. Smaller deviations all take the transform.
  const double scaled_var = polar_scaled_var(stddev);
  const bool sifted = slack != nullptr && scaled_var >= 0x1p-800;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t attempts = std::min(kBlock, n - done);
    fill(engine_, u, 2 * attempts);
    double* y = out + done;
    std::size_t kept = 0;
    const std::size_t accepted =
        round(u, attempts, y, r2, sifted ? slack + done : nullptr, scaled_var, mean,
              keep, &kept);
    if (sifted) {
      for (std::size_t k = 0; k < kept; ++k) {
        const std::uint32_t i = keep[k];
        y[i] = polar_deviate(y[i], r2[i], stddev, mean);
      }
    } else {
      for (std::size_t i = 0; i < accepted; ++i) {
        y[i] = polar_deviate(y[i], r2[i], stddev, mean);
      }
    }
    done += accepted;
  }
}

}  // namespace efd::sim
