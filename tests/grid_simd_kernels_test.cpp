// Odd-tail and dispatch-selection coverage of the batch carrier kernels
// (src/grid/simd.hpp). Every implementation the binary carries that this
// machine can run is swept over carrier counts that exercise full vector
// blocks, partial tails, and the single-element degenerate case; the
// log2 kernel and the ROBO sum are bounded against naive double-precision
// references and the element-wise kernels must match the scalar entry
// bit for bit (the EFD_SIMD=scalar byte-stability contract). The bit loader
// is an exact-contract kernel: every entry must equal pick_modulation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/grid/simd.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/modulation.hpp"
#include "src/plc/phy.hpp"
#include "src/plc/tone_map.hpp"
#include "src/sim/rng.hpp"

namespace efd::grid::simd {

// Print a kernel table by name, not by address: gtest lists the parameter
// next to each test, and ctest bakes that listing into the test names, so
// an address would give the sweep different names on every run.
void PrintTo(const CarrierKernels* k, std::ostream* os) { *os << k->name; }

}  // namespace efd::grid::simd

namespace efd {
namespace {

using grid::simd::CarrierKernels;

// Full AVX2 blocks (916 = 4*229), odd tails of every phase, and the HPAV /
// AV500 carrier counts themselves.
const std::size_t kSizes[] = {1, 7, 916, 917, 2232};

std::vector<double> random_db(sim::Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Sentinel-padded output buffer: checks a kernel writes exactly n values.
struct Padded {
  static constexpr double kSentinel = -777.25;
  std::vector<double> buf;
  explicit Padded(std::size_t n) : buf(n + 8, kSentinel) {}
  double* data() { return buf.data(); }
  void expect_no_overrun(std::size_t n, const char* what) {
    for (std::size_t i = n; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], kSentinel) << what << ": wrote past element " << n;
    }
  }
};

class KernelSweep : public ::testing::TestWithParam<const CarrierKernels*> {};

TEST_P(KernelSweep, DbConversionsMatchNaiveReference) {
  const CarrierKernels& k = *GetParam();
  sim::Rng rng{0xc01u};
  for (const std::size_t n : kSizes) {
    const std::vector<double> db = random_db(rng, n, -120.0, 80.0);
    std::vector<double> lin(n);
    for (std::size_t i = 0; i < n; ++i) lin[i] = std::pow(10.0, db[i] / 10.0);
    Padded back(n);
    k.linear_to_db_n(lin.data(), back.data(), n);
    back.expect_no_overrun(n, "linear_to_db_n");
    for (std::size_t i = 0; i < n; ++i) {
      const double ref = 10.0 * std::log10(lin[i]);
      EXPECT_NEAR(back.buf[i], ref, 1e-12 * std::max(std::abs(ref), 1e-9))
          << k.name << " n=" << n << " i=" << i;
    }
  }
}

// The ROBO sum is one plain loop (plc::mean_linear_snr), not a kernel-table
// entry: it must match the naive reference, and the ROBO branch of
// pb_error_probability must come out bit-identical under every kernel table.
TEST_P(KernelSweep, SumDbToLinearMatchesNaiveSum) {
  const CarrierKernels& k = *GetParam();
  sim::Rng rng{0x5e2u};
  for (const std::size_t n : kSizes) {
    const std::vector<double> db = random_db(rng, n, -40.0, 45.0);
    double ref = 0.0;
    for (double v : db) ref += std::pow(10.0, v / 10.0);
    const double sum = plc::mean_linear_snr(db) * static_cast<double>(n);
    EXPECT_NEAR(sum, ref, 1e-12 * ref) << k.name << " n=" << n;
  }
  plc::PhyParams phy;
  const plc::ToneMap robo = plc::ToneMap::robo(phy);
  const std::vector<double> snr =
      random_db(rng, static_cast<std::size_t>(phy.band.n_carriers), -40.0, 10.0);
  EXPECT_EQ(robo.pb_error_probability(snr, phy, k),
            robo.pb_error_probability(snr, phy, grid::simd::scalar_kernels()))
      << k.name;
}

TEST_P(KernelSweep, ElementwiseKernelsAreBitIdenticalToScalar) {
  const CarrierKernels& k = *GetParam();
  const CarrierKernels& sc = grid::simd::scalar_kernels();
  sim::Rng rng{0xe1eu};
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_db(rng, n, -60.0, 60.0);
    const std::vector<double> y = random_db(rng, n, -60.0, 60.0);
    Padded a(n), b(n);

    k.affine_n(1.875, -0.375, x.data(), a.data(), n);
    sc.affine_n(1.875, -0.375, x.data(), b.data(), n);
    a.expect_no_overrun(n, "affine_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " affine n=" << n << " i=" << i;

    k.accumulate_notch_n(0.5, 7.25, y.data(), a.data(), n);
    sc.accumulate_notch_n(0.5, 7.25, y.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " notch n=" << n << " i=" << i;

    k.accumulate_scaled_n(0.037, x.data(), a.data(), n);
    sc.accumulate_scaled_n(0.037, x.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " scaled n=" << n << " i=" << i;

    k.assemble_snr_n(55.0, x.data(), y.data(), a.data(), n);
    sc.assemble_snr_n(55.0, x.data(), y.data(), b.data(), n);
    a.expect_no_overrun(n, "assemble_snr_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " snr n=" << n << " i=" << i;

    // shift_n with in == out (the in-place contract channel.cpp relies on).
    k.shift_n(a.data(), 2.125, a.data(), n);
    sc.shift_n(b.data(), 2.125, b.data(), n);
    a.expect_no_overrun(n, "shift_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " shift n=" << n << " i=" << i;
  }
}

TEST_P(KernelSweep, BerWeightedSumMatchesNaiveLutWalk) {
  const CarrierKernels& k = *GetParam();
  const grid::simd::InterpTableView lut = plc::ber_lut_view();
  sim::Rng rng{0xbe55u};
  for (const std::size_t n : kSizes) {
    // SNR range pushes through both clamp edges of the LUT domain.
    const std::vector<double> snr = random_db(rng, n, -95.0, 70.0);
    std::vector<std::int32_t> rows(n);
    std::vector<double> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int m = rng.uniform_int(0, plc::kModulationCount - 1);
      rows[i] = m * lut.size;
      bits[i] = static_cast<double>(plc::kBitsPerSymbol[static_cast<std::size_t>(m)]);
    }
    double wb = -1.0, tb = -1.0;
    k.ber_weighted_sum_n(lut, rows.data(), bits.data(), snr.data(), 7.0, n, &wb,
                         &tb);
    double ref_wb = 0.0, ref_tb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bits[i] == 0.0) continue;
      const auto m = static_cast<plc::Modulation>(rows[i] / lut.size);
      ref_wb += plc::uncoded_ber(m, snr[i] + 7.0) * bits[i];
      ref_tb += bits[i];
    }
    EXPECT_NEAR(wb, ref_wb, 1e-9 * std::max(ref_wb, 1.0)) << k.name << " n=" << n;
    EXPECT_EQ(tb, ref_tb) << k.name << " n=" << n;
  }
}

/// Bit-loader inputs on every edge: each threshold and the doubles either
/// side of it, signed zeros, NaN, infinities and huge magnitudes.
std::vector<double> bit_load_edges() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0,  -0.0,  std::numeric_limits<double>::quiet_NaN(),
                           kInf, -kInf, 1e300, -1e300};
  for (std::size_t m = 1; m < plc::kModulationCount; ++m) {
    const double t = plc::kRequiredSnrDb[m];
    v.insert(v.end(), {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)});
  }
  return v;
}

TEST_P(KernelSweep, BitLoadMatchesPickModulationExactly) {
  // The exact-contract kernel: every entry must equal pick_modulation and
  // kBitsPerSymbol in every output, with no tolerance.
  const CarrierKernels& k = *GetParam();
  const grid::simd::BitLoadTable& table = plc::bit_load_table();
  const std::vector<double> edges = bit_load_edges();
  sim::Rng rng{0xb17u};
  for (const double margin : {0.0, 1.5, -2.75}) {
    for (const std::size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 917}) {
      // Edges rotate through every lane position as n changes; every third
      // carrier is an ordinary SNR.
      std::vector<double> snr(n);
      for (std::size_t i = 0; i < n; ++i) {
        snr[i] = i % 3 == 2 ? rng.uniform(-10.0, 40.0) : edges[(i + n) % edges.size()];
      }
      std::vector<std::uint8_t> level(n + 8, 0xee);
      std::vector<std::int32_t> rows(n + 8, -1);
      Padded bits(n);
      const std::int64_t total = k.bit_load_n(table, snr.data(), margin, n,
                                              level.data(), rows.data(), bits.data());
      std::int64_t want_total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const plc::Modulation m = plc::pick_modulation(snr[i] - margin);
        const int b = plc::bits_per_symbol(m);
        want_total += b;
        ASSERT_EQ(level[i], static_cast<std::uint8_t>(m))
            << k.name << " snr " << snr[i] << " margin " << margin << " i " << i;
        ASSERT_EQ(rows[i], static_cast<std::int32_t>(m) * table.row_len) << k.name;
        ASSERT_EQ(bits.buf[i], static_cast<double>(b)) << k.name;
      }
      EXPECT_EQ(total, want_total) << k.name << " n=" << n;
      bits.expect_no_overrun(n, "bit_load_n");
      for (std::size_t i = n; i < n + 8; ++i) {
        ASSERT_EQ(level[i], 0xee) << k.name << ": wrote past level " << n;
        ASSERT_EQ(rows[i], -1) << k.name << ": wrote past row " << n;
      }
    }
  }
}

/// The level bit_load_n gives one SNR at one margin.
int level_of(double snr, double margin) {
  std::uint8_t level = 0;
  std::int32_t row = 0;
  double bits = 0.0;
  grid::simd::detail::bit_load_n_scalar(plc::bit_load_table(), &snr, margin, 1, &level,
                                        &row, &bits);
  return level;
}

TEST_P(KernelSweep, BitLoadReachIsExactAndSound) {
  // Exact contract: every entry writes the scalar entry's reach bit for
  // bit. Soundness: a move of less than the reach, in either direction and
  // by the largest such amounts, changes no level at any margin — checked
  // on every boundary, the doubles 1..4 ulps either side of it, points a
  // little way off it, and the non-finite and huge edges.
  const CarrierKernels& k = *GetParam();
  const grid::simd::BitLoadTable& table = plc::bit_load_table();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> ladders = {
      {1.0}, {2.5, 1.75, 1.0, 0.25}, {6.2, 4.7, 3.2, 1.7}, {15.3, 14.55}, {-2.0, -3.5}};
  for (const std::vector<double>& margins : ladders) {
    std::vector<double> snr = bit_load_edges();
    for (const double m : margins) {
      for (const double th : table.thresholds) {
        double up = th + m;
        double down = up;
        snr.push_back(up);
        for (int u = 0; u < 4; ++u) {
          up = std::nextafter(up, kInf);
          down = std::nextafter(down, -kInf);
          snr.insert(snr.end(), {up, down});
        }
        for (const double off : {1e-12, 1e-3, 0.2, 0.75}) {
          snr.insert(snr.end(), {th + m + off, th + m - off});
        }
      }
    }
    for (const std::size_t n : {snr.size(), snr.size() - 1, std::size_t{5}}) {
      Padded got(n);
      Padded want(n);
      k.bit_load_reach_n(table, margins.data(), margins.size(), snr.data(), n,
                         got.data());
      grid::simd::detail::bit_load_reach_n_scalar(table, margins.data(), margins.size(),
                                                  snr.data(), n, want.data());
      got.expect_no_overrun(n, "bit_load_reach_n");
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.buf[i]),
                  std::bit_cast<std::uint64_t>(want.buf[i]))
            << k.name << " snr " << snr[i] << " i " << i;
      }
    }
    std::vector<double> reach(snr.size());
    k.bit_load_reach_n(table, margins.data(), margins.size(), snr.data(), snr.size(),
                       reach.data());
    std::size_t positive = 0;
    for (std::size_t i = 0; i < snr.size(); ++i) {
      const double x = snr[i];
      const double r = reach[i];
      if (!std::isfinite(x)) {
        EXPECT_TRUE(std::isnan(r)) << k.name << " snr " << x;
        continue;
      }
      ASSERT_FALSE(std::isnan(r)) << k.name << " snr " << x;
      if (!(r > 0.0)) continue;
      ++positive;
      const double inside = std::nextafter(r, 0.0);
      for (const double d : {inside, -inside, 0.5 * r, -0.5 * r, 1e-300, -1e-300}) {
        for (const double m : margins) {
          ASSERT_EQ(level_of(x + d, m), level_of(x + 0.0, m))
              << k.name << " snr " << x << " d " << d << " margin " << m;
        }
      }
    }
    // Only the points within a few ulps of a boundary get no reach.
    EXPECT_GT(positive, snr.size() / 4) << k.name;
  }
}

TEST_P(KernelSweep, ToneMapPbErrorMatchesDefaultPath) {
  const CarrierKernels& k = *GetParam();
  plc::PhyParams phy;
  sim::Rng rng{0x70e1u};
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const std::vector<double> snr = random_db(rng, n, -15.0, 40.0);
  const plc::ToneMap tm = plc::ToneMap::from_snr(snr, 2.0, phy, 0.0, 1);
  const double via_kernel = tm.pb_error_probability(snr, phy, k);
  const double via_scalar =
      tm.pb_error_probability(snr, phy, grid::simd::scalar_kernels());
  EXPECT_NEAR(via_kernel, via_scalar, 5e-3) << k.name;
}

TEST_P(KernelSweep, RoboMeanLinearSnrClampBoundary) {
  const CarrierKernels& k = *GetParam();
  plc::PhyParams phy;
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const plc::ToneMap robo = plc::ToneMap::robo(phy);
  // Deep in the clamp region: mean linear SNR far below the 1e-6 floor, so
  // every implementation must land on the identical clamped combined SNR.
  const std::vector<double> abyss(n, -200.0);
  const double p_k = robo.pb_error_probability(abyss, phy, k);
  const double p_s =
      robo.pb_error_probability(abyss, phy, grid::simd::scalar_kernels());
  EXPECT_EQ(p_k, p_s) << k.name << " below clamp";
  // Just above the floor: mean linear = 10^(-59/10) ~ 1.26e-6 > 1e-6, the
  // clamp must NOT engage and the combining math must agree within the
  // PB-error tolerance.
  const std::vector<double> edge(n, -59.0);
  EXPECT_NEAR(robo.pb_error_probability(edge, phy, k),
              robo.pb_error_probability(edge, phy, grid::simd::scalar_kernels()),
              5e-3)
      << k.name << " above clamp";
}

std::string kernel_name(const ::testing::TestParamInfo<const CarrierKernels*>& i) {
  return i.param->name;
}

INSTANTIATE_TEST_SUITE_P(AllImpls, KernelSweep,
                         ::testing::ValuesIn(grid::simd::available_kernels().begin(),
                                             grid::simd::available_kernels().end()),
                         kernel_name);

TEST(KernelSelection, ScalarIsAlwaysHonored) {
  EXPECT_STREQ(grid::simd::select_kernels("scalar").name, "scalar");
}

TEST(KernelSelection, AutoPicksTheBestAvailable) {
  const CarrierKernels& best = grid::simd::select_kernels("auto");
  if (grid::simd::avx2_kernels() != nullptr) {
    EXPECT_EQ(&best, grid::simd::avx2_kernels());
  } else if (grid::simd::neon_kernels() != nullptr) {
    EXPECT_EQ(&best, grid::simd::neon_kernels());
  } else {
    EXPECT_EQ(&best, &grid::simd::scalar_kernels());
  }
  // Unknown names degrade to the same choice instead of failing.
  EXPECT_EQ(&grid::simd::select_kernels("bogus-isa"), &best);
  EXPECT_EQ(&grid::simd::select_kernels(""), &best);
}

TEST(KernelSelection, ExplicitIsaFallsBackWhenUnavailable) {
  if (grid::simd::avx2_kernels() == nullptr) {
    EXPECT_NE(grid::simd::select_kernels("avx2").name, std::string("avx2"));
  } else {
    EXPECT_STREQ(grid::simd::select_kernels("avx2").name, "avx2");
  }
}

TEST(KernelSelection, AvailableListStartsWithScalar) {
  const auto list = grid::simd::available_kernels();
  ASSERT_GE(list.size(), 1u);
  EXPECT_EQ(list[0], &grid::simd::scalar_kernels());
  for (const CarrierKernels* k : list) {
    EXPECT_GE(grid::simd::impl_index(*k), 0);
    EXPECT_LE(grid::simd::impl_index(*k), 2);
  }
}

TEST(AlignedWorkspace, BuffersAre64ByteAlignedAndGrowPreservingContents) {
  grid::AlignedVec v;
  v.resize(7);
  for (std::size_t i = 0; i < 7; ++i) v[i] = static_cast<double>(i) * 1.5;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % grid::AlignedVec::kAlign,
            0u);
  const std::size_t big = 2232;
  v.reserve(big);
  ASSERT_EQ(v.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(v[i], static_cast<double>(i) * 1.5) << "grow lost element " << i;
  }
  v.resize(big);
  EXPECT_EQ(v.size(), big);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % grid::AlignedVec::kAlign,
            0u);
  v.assign(917, 3.25);
  EXPECT_EQ(v.size(), 917u);
  for (std::size_t i = 0; i < 917; ++i) ASSERT_EQ(v[i], 3.25);
}

TEST(AlignedWorkspace, ReserveCarriersFrontLoadsAllocations) {
  grid::CarrierWorkspace ws;
  ws.reserve_carriers(917);
  ws.att_db.resize(917);
  const double* before = ws.att_db.data();
  ws.att_db.resize(917);  // no growth, no reallocation
  EXPECT_EQ(ws.att_db.data(), before);
  EXPECT_EQ(ws.noise_db.size(), 0u) << "reserve must not change logical sizes";
  ws.noise_db.resize(917);
  EXPECT_EQ(ws.noise_db.size(), 917u);
}

TEST(AlignedWorkspace, GuardIsSequentiallyReusable) {
  grid::CarrierWorkspace ws;
  {
    grid::CarrierWorkspace::Guard g1(ws);
  }
  {
    grid::CarrierWorkspace::Guard g2(ws);  // released guard can be retaken
  }
  SUCCEED();
}

TEST(KernelSelection, ActiveKernelsRecordsImplGauge) {
  const CarrierKernels& k = grid::simd::active_kernels();
  EXPECT_EQ(grid::simd::active_impl_index(), grid::simd::impl_index(k));
  EXPECT_STREQ(grid::simd::active_impl_name(), k.name);
  const std::string snap = obs::snapshot_json();
  EXPECT_NE(snap.find("carrier_math.impl"), std::string::npos);
}

}  // namespace
}  // namespace efd
