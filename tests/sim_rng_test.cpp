#include "src/sim/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "src/sim/isa.hpp"
#include "src/sim/stats.hpp"

namespace efd::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{7}, b{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{7}, b{8};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng base{7};
  Rng f1 = base.fork(1);
  Rng f2 = Rng{7}.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(f1.uniform(), f2.uniform());
}

TEST(Rng, ForksAreIndependentStreams) {
  Rng base{7};
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.uniform() == f2.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDoesNotDisturbParent) {
  Rng a{9}, b{9};
  (void)a.fork(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformAbRange) {
  Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{1};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng{2};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng{3};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential_mean(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.2);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{4};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{5};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, LognormalLinearMean) {
  Rng rng{6};
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.lognormal(5.0, 0.3));
  EXPECT_NEAR(s.mean(), 5.0, 0.15);
}

/// Pearson chi-squared statistic of the joint distribution of interleaved
/// draws from two streams, bucketed into an 8x8 contingency table against
/// the uniform-independence expectation.
double chi_squared_interleaved(Rng a, Rng b, int n_pairs) {
  constexpr int kBins = 8;
  int counts[kBins][kBins] = {};
  for (int i = 0; i < n_pairs; ++i) {
    const int ba = std::min(kBins - 1, static_cast<int>(a.uniform() * kBins));
    const int bb = std::min(kBins - 1, static_cast<int>(b.uniform() * kBins));
    ++counts[ba][bb];
  }
  const double expect = static_cast<double>(n_pairs) / (kBins * kBins);
  double chi2 = 0.0;
  for (const auto& row : counts) {
    for (int c : row) {
      const double d = c - expect;
      chi2 += d * d / expect;
    }
  }
  return chi2;
}

TEST(Rng, SiblingStreamsAreIndependent) {
  // Adjacent fork() streams of one parent must behave as independent
  // uniform sources: chi-squared over the 8x8 joint histogram has 63
  // degrees of freedom, whose 99.9th percentile is ~103.4. The seeds are
  // fixed, so the bound is deterministic; a systematic stream correlation
  // (e.g. a weak fork mix) blows far past it.
  for (std::uint64_t parent : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const Rng base{parent};
    for (std::uint64_t k : {0ULL, 1ULL, 7ULL}) {
      const double chi2 =
          chi_squared_interleaved(base.fork(k), base.fork(k + 1), 20000);
      EXPECT_LT(chi2, 103.4) << "parent " << parent << " streams " << k
                             << "," << k + 1;
    }
  }
}

TEST(Rng, SiblingStreamsAreSeriallyUncorrelated) {
  // Lag-0 Pearson correlation between the i-th draws of adjacent streams.
  const Rng base{11};
  Rng a = base.fork(3);
  Rng b = base.fork(4);
  const int n = 20000;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double var_a = saa / n - (sa / n) * (sa / n);
  const double var_b = sbb / n - (sb / n) * (sb / n);
  const double r = cov / std::sqrt(var_a * var_b);
  // |r| for independent streams is O(1/sqrt(n)) ~ 0.007; allow 4x.
  EXPECT_LT(std::abs(r), 0.03);
}

// --- Stream contract: bit-equal to the standard library -------------------
// Rng promises the streams of std::mt19937_64 + the libstdc++ distributions
// (one fresh distribution per draw). Every check below compares against the
// installed standard library at run time; the only hard-coded stream value
// is the standard's own known answer for mt19937_64.

constexpr std::uint64_t kSeeds[] = {0ULL, 1ULL, 5489ULL, 0xdeadbeefULL, ~0ULL};

/// A few root streams and some of their forks.
std::vector<Rng> streams() {
  std::vector<Rng> out;
  for (std::uint64_t s : kSeeds) {
    const Rng root{s};
    out.push_back(root);
    for (std::uint64_t k : {0ULL, 1ULL, 17ULL}) out.push_back(root.fork(k));
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RngStream, EngineMatchesStdMt19937_64) {
  // 2000 outputs span six twists of the 312-word state.
  std::vector<std::uint64_t> seeds(std::begin(kSeeds), std::end(kSeeds));
  for (const Rng& r : streams()) seeds.push_back(r.engine_seed());
  for (std::uint64_t seed : seeds) {
    Mt19937_64 ours{seed};
    std::mt19937_64 ref{seed};
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngStream, EngineKnownAnswer) {
  // C++ [rand.predef]: the 10000th output of a default-seeded (5489)
  // mt19937_64 is 9981545732273789042.
  Mt19937_64 engine{5489};
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// A URBG that returns one fixed 64-bit output.
struct FixedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type value;
  result_type operator()() { return value; }
};

TEST(RngStream, CanonicalMatchesGenerateCanonical) {
  // Edges of the conversion: zero, the 53-bit boundary, round-to-even ties,
  // and the top 2^10 outputs that round up to 1.0 and must be clamped.
  constexpr std::uint64_t kP53 = 1ULL << 53;
  constexpr std::uint64_t kHalf = 1ULL << 63;
  constexpr std::uint64_t kTop = ~0ULL;
  std::vector<std::uint64_t> us = {0, 1, kP53 - 1, kP53, kP53 + 1};
  us.insert(us.end(), {kHalf + 1024, kHalf + 1025, kHalf + 3072});
  us.insert(us.end(), {kTop - 1024, kTop - 1023, kTop - 512, kTop});
  Mt19937_64 engine{99};
  for (int i = 0; i < 5000; ++i) us.push_back(engine());
  for (std::uint64_t u : us) {
    FixedBits g{u};
    const double want =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(g);
    ASSERT_EQ(bits(Rng::canonical(u)), bits(want)) << "u " << u;
    ASSERT_LT(Rng::canonical(u), 1.0);
  }
}

/// The block-fill entries this binary and CPU can run, called directly
/// rather than through EFD_SIMD.
std::vector<std::pair<const char*, Mt19937_64::SignedFill>> fill_entries() {
  std::vector<std::pair<const char*, Mt19937_64::SignedFill>> out = {
      {"scalar", &Mt19937_64::signed_fill_scalar}};
  if (Mt19937_64::SignedFill f = Mt19937_64::signed_fill_avx2()) {
    out.emplace_back("avx2", f);
  }
  return out;
}

TEST(RngStream, ActiveFillFollowsTheSharedIsaChoice) {
  // EFD_SIMD picks one level for the carrier kernels and the RNG alike.
  const bool avx2 = isa::active() == isa::Level::kAvx2;
  EXPECT_EQ(Mt19937_64::active_signed_fill(),
            avx2 ? Mt19937_64::signed_fill_avx2() : &Mt19937_64::signed_fill_scalar);
  EXPECT_EQ(isa::resolve("scalar"), isa::Level::kScalar);
  EXPECT_EQ(Mt19937_64::signed_fill_avx2() != nullptr,
            isa::available(isa::Level::kAvx2));
}

TEST(RngStream, SignedFillMatchesGenerateCanonical) {
  // Consecutive fills of every length 0..700 cross the twist at 312 many
  // times, end on every tail modulo 4, and start at every offset into the
  // state block; 0..5 single draws (one count per stream, in turn) first
  // shift where the first fill starts.
  const std::vector<Rng> all = streams();
  for (const auto& [name, fill] : fill_entries()) {
    for (std::size_t s = 0; s < all.size(); ++s) {
      const std::uint64_t seed = all[s].engine_seed();
      const std::size_t skip = s % 6;
      Mt19937_64 engine{seed};
      std::mt19937_64 ref{seed};
      for (std::size_t i = 0; i < skip; ++i) ASSERT_EQ(engine(), ref());
      std::vector<double> got;
      for (std::size_t n = 0; n <= 700; ++n) {
        got.assign(n + 1, -7.0);
        fill(engine, got.data(), n);
        ASSERT_EQ(got[n], -7.0) << name << ": wrote past element " << n;
        for (std::size_t i = 0; i < n; ++i) {
          const double u =
              std::generate_canonical<double, std::numeric_limits<double>::digits>(ref);
          ASSERT_EQ(bits(got[i]), bits(2.0 * u - 1.0))
              << name << " seed " << seed << " skip " << skip << " n " << n << " i "
              << i;
        }
      }
      ASSERT_EQ(engine(), ref()) << name << ": the fill left the engine elsewhere";
    }
  }
}

/// n draws from a fresh std::normal_distribution each: the stream
/// Rng::normal and Rng::normal_fill promise.
std::vector<double> std_normals(std::mt19937_64& ref, std::size_t n, double mean,
                                double sd) {
  std::vector<double> out(n);
  for (double& v : out) v = std::normal_distribution<double>{mean, sd}(ref);
  return out;
}

constexpr double kSigmas[] = {1e-300, 1e-9, 0.3, 1.0, 3.6, 250.0};

TEST(RngStream, NormalMatchesFreshStdDistribution) {
  for (Rng rng : streams()) {
    std::mt19937_64 ref{rng.engine_seed()};
    for (double sd : kSigmas) {
      for (double mean : {0.0, -7.25}) {
        for (double want : std_normals(ref, 300, mean, sd)) {
          ASSERT_EQ(bits(rng.normal(mean, sd)), bits(want))
              << "sd " << sd << " mean " << mean;
        }
      }
    }
  }
}

TEST(RngStream, NormalFillMatchesFreshStdDistribution) {
  // Lengths around the fill's internal block size and one slot's carriers;
  // consecutive fills and a trailing normal() continue the same stream.
  for (Rng rng : streams()) {
    std::mt19937_64 ref{rng.engine_seed()};
    for (double sd : kSigmas) {
      for (std::size_t n : {0, 1, 63, 64, 65, 128, 917}) {
        std::vector<double> got(n);
        rng.normal_fill(got.data(), n, 1.5, sd);
        const std::vector<double> want = std_normals(ref, n, 1.5, sd);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i]))
              << "sd " << sd << " n " << n << " i " << i;
        }
      }
      ASSERT_EQ(bits(rng.normal(0.0, sd)), bits(std_normals(ref, 1, 0.0, sd)[0]));
    }
  }
}

TEST(RngStream, NormalFillIsBitEqualUnderEveryFillEntry) {
  const auto entries = fill_entries();
  for (const Rng& root : streams()) {
    std::vector<std::vector<double>> runs;
    for (const auto& [name, fill] : entries) {
      Rng rng = root;
      std::vector<double>& out = runs.emplace_back();
      for (std::size_t n : {0, 1, 3, 64, 65, 917, 311, 917}) {
        std::vector<double> block(n);
        rng.normal_fill(block.data(), n, -0.5, 0.3 + static_cast<double>(n), fill);
        out.insert(out.end(), block.begin(), block.end());
      }
      out.push_back(rng.uniform());
    }
    for (std::size_t e = 1; e < runs.size(); ++e) {
      ASSERT_EQ(runs[e].size(), runs[0].size());
      for (std::size_t i = 0; i < runs[0].size(); ++i) {
        ASSERT_EQ(bits(runs[e][i]), bits(runs[0][i]))
            << entries[e].first << " seed " << root.engine_seed() << " i " << i;
      }
    }
  }
}

TEST(RngStream, OtherDistributionsMatchStd) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (Rng rng : streams()) {
    std::mt19937_64 ref{rng.engine_seed()};
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(bits(rng.uniform()),
                bits(std::uniform_real_distribution<double>{0.0, 1.0}(ref)));
      ASSERT_EQ(bits(rng.uniform(-3.0, 5.5)),
                bits(std::uniform_real_distribution<double>{-3.0, 5.5}(ref)));
      ASSERT_EQ(rng.uniform_int(0, 7),
                (std::uniform_int_distribution<std::int64_t>{0, 7}(ref)));
      ASSERT_EQ(rng.uniform_int(-1'000'000'007, 3),
                (std::uniform_int_distribution<std::int64_t>{-1'000'000'007, 3}(ref)));
      ASSERT_EQ(rng.uniform_int(kMin, kMax),
                (std::uniform_int_distribution<std::int64_t>{kMin, kMax}(ref)));
      for (double p : {1e-6, 0.03, 0.5, 0.97}) {
        ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution{p}(ref)) << "p " << p;
      }
      for (double mean : {0.25, 4.0, 1e4}) {
        ASSERT_EQ(bits(rng.exponential_mean(mean)),
                  bits(std::exponential_distribution<double>{1.0 / mean}(ref)));
      }
      for (double sigma_log : {0.05, 0.3, 1.2}) {
        const double mu = std::log(5.0) - 0.5 * sigma_log * sigma_log;
        ASSERT_EQ(bits(rng.lognormal(5.0, sigma_log)),
                  bits(std::lognormal_distribution<double>{mu, sigma_log}(ref)));
      }
    }
  }
}

}  // namespace
}  // namespace efd::sim
