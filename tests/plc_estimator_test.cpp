#include "src/plc/channel_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "alloc_count.hpp"
#include "src/grid/appliance.hpp"

namespace efd::plc {
namespace {

/// Two stations over a quiet 10 m link: a good, stable channel.
struct EstimatorFixture : ::testing::Test {
  grid::PowerGrid grid;
  PlcChannel channel{grid, PhyParams::hpav()};
  ChannelEstimator::Config cfg;

  void SetUp() override {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    // 22 dB of lumped loss puts the link around 41 dB SNR: enough headroom
    // to ride out background impulses at the 150 Mb/s ceiling, while the
    // initial high-uncertainty margin still costs real rate.
    grid.add_cable(a, b, 10.0, 22.0);
    channel.attach_station(0, a);
    channel.attach_station(1, b);
  }

  ChannelEstimator make(std::uint64_t seed = 1) {
    return ChannelEstimator(channel, 0, 1, sim::Rng{seed}, cfg);
  }

  static sim::Time t0() { return sim::days(1) + sim::hours(12); }

  /// Feed saturated-style frames for `seconds` of simulated time.
  static void feed(ChannelEstimator& est, const PlcChannel& ch, double seconds,
                   sim::Time start, int pbs_per_frame = 60, int symbols = 40) {
    sim::Rng rng{7};
    for (double s = 0.0; s < seconds; s += 0.01) {
      const sim::Time now = start + sim::seconds(s);
      const int slot = ch.slot_at(now);
      const ToneMap& tm = est.has_tone_maps()
                              ? est.tone_maps().slots[static_cast<std::size_t>(slot)]
                              : est.tone_maps().robo;
      const double p = ch.pb_error_probability(tm, 0, 1, slot, now);
      int errors = 0;
      for (int i = 0; i < pbs_per_frame; ++i) errors += rng.bernoulli(p) ? 1 : 0;
      est.on_frame_received(slot, pbs_per_frame, errors, symbols, now);
    }
  }
};

TEST_F(EstimatorFixture, StartsWithoutToneMaps) {
  auto est = make();
  EXPECT_FALSE(est.has_tone_maps());
  // Without maps, reported BLE falls back to the ROBO default.
  EXPECT_LT(est.average_ble_mbps(), 10.0);
}

TEST_F(EstimatorFixture, SoundFrameBootstraps) {
  auto est = make();
  est.on_sound_frame(t0());
  EXPECT_TRUE(est.has_tone_maps());
  EXPECT_EQ(static_cast<int>(est.tone_maps().slots.size()),
            channel.phy().tone_map_slots);
  EXPECT_GT(est.average_ble_mbps(), 10.0);
}

TEST_F(EstimatorFixture, ConvergesUpwardWithTraffic) {
  auto est = make();
  est.on_sound_frame(t0());
  const double initial = est.average_ble_mbps();
  feed(est, channel, 10.0, t0());
  const double converged = est.average_ble_mbps();
  EXPECT_GT(converged, initial + 10.0);
  // The quiet 10 m link should sustain near the 150 Mb/s ceiling.
  EXPECT_GT(converged, 130.0);
}

TEST_F(EstimatorFixture, UncertaintyShrinksWithSamples) {
  auto est = make();
  est.on_sound_frame(t0());
  const auto few = est.pb_samples();
  feed(est, channel, 2.0, t0());
  EXPECT_GT(est.pb_samples(), few + 1000);
}

TEST_F(EstimatorFixture, ResetDropsEverything) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 3.0, t0());
  ASSERT_TRUE(est.has_tone_maps());
  est.reset(t0() + sim::seconds(3));
  EXPECT_FALSE(est.has_tone_maps());
  EXPECT_EQ(est.pb_samples(), 0u);
  EXPECT_DOUBLE_EQ(est.measured_pberr(), 0.0);
}

TEST_F(EstimatorFixture, StatisticsPersistAcrossPause) {
  // Fig. 17: pausing the probing does not reset the estimation — BLE
  // resumes from its pre-pause value.
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  const double before = est.average_ble_mbps();
  // 7 minutes of silence, then one more batch.
  const sim::Time resume = t0() + sim::seconds(10) + sim::minutes(7);
  feed(est, channel, 0.2, resume);
  EXPECT_NEAR(est.average_ble_mbps(), before, before * 0.1);
}

TEST_F(EstimatorFixture, ExpiryTriggersRetune) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 5.0, t0());
  const auto updates = est.update_count();
  // A single frame far beyond the 30 s expiry forces a refresh.
  est.on_frame_received(0, 10, 0, 5, t0() + sim::seconds(5) + sim::seconds(40));
  EXPECT_GT(est.update_count(), updates);
}

TEST_F(EstimatorFixture, ErrorBurstTriggersRetuneAndBleDrop) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  const double before = est.average_ble_mbps();
  const auto updates = est.update_count();
  // A burst of heavily errored frames (e.g. capture-effect collisions).
  sim::Time now = t0() + sim::seconds(10);
  for (int i = 0; i < 10; ++i) {
    now += sim::seconds(1);
    est.on_frame_received(0, 10, 6, 5, now);
  }
  EXPECT_GT(est.update_count(), updates);
  EXPECT_LT(est.average_ble_mbps(), before);
}

TEST_F(EstimatorFixture, PanicMarginDecaysAfterCleanTraffic) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  sim::Time now = t0() + sim::seconds(10);
  for (int i = 0; i < 10; ++i) {
    now += sim::seconds(1);
    est.on_frame_received(0, 10, 6, 5, now);
  }
  const double dropped = est.average_ble_mbps();
  // Clean traffic afterwards: BLE recovers within a few retunes (Fig. 10's
  // impulsive drops with convergence back).
  feed(est, channel, 80.0, now + sim::seconds(1));
  EXPECT_GT(est.average_ble_mbps(), dropped);
}

TEST_F(EstimatorFixture, SinglePbProbesClampAtR1sym) {
  // Fig. 18: 1 probe/s with <= 1 PB converges to ~89.4 Mb/s even though the
  // channel supports ~150.
  auto est = make();
  est.on_sound_frame(t0());
  sim::Time now = t0();
  sim::Rng rng{3};
  for (int i = 0; i < 600; ++i) {
    now += sim::seconds(1);
    const int slot = channel.slot_at(now);
    est.on_frame_received(slot, 1, 0, 1, now);
  }
  EXPECT_NEAR(est.average_ble_mbps(),
              channel.phy().single_pb_symbol_rate_mbps(), 4.0);
}

TEST_F(EstimatorFixture, MultiPbProbesDoNotClamp) {
  // 1300 B probes (3 PBs) escape the clamp.
  auto est = make();
  est.on_sound_frame(t0());
  sim::Time now = t0();
  for (int i = 0; i < 600; ++i) {
    now += sim::seconds(1);
    const int slot = channel.slot_at(now);
    est.on_frame_received(slot, 3, 0, 2, now);
  }
  EXPECT_GT(est.average_ble_mbps(), 120.0);
}

TEST_F(EstimatorFixture, BleSlotAccessorMatchesSet) {
  auto est = make();
  est.on_sound_frame(t0());
  double sum = 0.0;
  for (int s = 0; s < channel.phy().tone_map_slots; ++s) sum += est.ble_mbps(s);
  EXPECT_NEAR(est.average_ble_mbps(), sum / channel.phy().tone_map_slots, 1e-9);
}

class ProbeRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProbeRateSweep, HigherRateConvergesFaster) {
  // Core Fig. 16 property: more probes per second, faster convergence.
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  grid.add_cable(a, b, 10.0);
  PlcChannel channel{grid, PhyParams::hpav()};
  channel.attach_station(0, a);
  channel.attach_station(1, b);

  const int rate = GetParam();
  ChannelEstimator est(channel, 0, 1, sim::Rng{5}, {});
  const sim::Time t0 = sim::days(1) + sim::hours(12);
  est.on_sound_frame(t0);
  // 60 simulated seconds of probing at `rate` packets (3 PBs each) per s.
  sim::Time now = t0;
  for (int s = 0; s < 60; ++s) {
    for (int k = 0; k < rate; ++k) {
      now += sim::seconds(1.0 / rate);
      est.on_frame_received(channel.slot_at(now), 3, 0, 2, now);
    }
  }
  // Samples scale with rate; the uncertainty-driven margin shrinks with it.
  EXPECT_GE(est.pb_samples(), static_cast<std::uint64_t>(rate) * 60 * 3);
}

INSTANTIATE_TEST_SUITE_P(Rates, ProbeRateSweep, ::testing::Values(1, 10, 50));

// --- Allocation-free retunes ------------------------------------------------

/// Drive an estimator that already has tone maps through every retune
/// trigger: an error burst, the improvement path (clean multi-PB traffic),
/// expiry, and finally single-PB probes until the rate clamp engages.
void drive_retune_paths(ChannelEstimator& est, const PhyParams& phy, sim::Time now) {
  const auto retune_within = [&](int max_frames, int n_pbs, int n_errors) {
    const auto updates = est.update_count();
    for (int i = 0; i < max_frames && est.update_count() == updates; ++i) {
      now += sim::milliseconds(10);
      est.on_frame_received(0, n_pbs, n_errors, 5, now);
    }
    EXPECT_GT(est.update_count(), updates);
  };
  // Error trigger, then the improvement trigger.
  retune_within(100, 10, 10);
  retune_within(2000, 60, 0);
  // Expiry.
  const auto updates = est.update_count();
  now += sim::seconds(31);
  est.maybe_expire(now);
  EXPECT_GT(est.update_count(), updates);
  // Single-PB probes once a second: expiry retunes keep firing and, once
  // the PBs-per-frame average falls to one, run the clamped path.
  for (int i = 0; i < 240; ++i) {
    now += sim::seconds(1);
    est.on_frame_received(0, 1, 0, 1, now);
  }
  EXPECT_LE(est.average_ble_mbps(), phy.single_pb_symbol_rate_mbps());
  EXPECT_GT(est.average_ble_mbps(), phy.single_pb_symbol_rate_mbps() - 10.0);
}

TEST_F(EstimatorFixture, RetunesAfterTheFirstAllocateNothing) {
  // A throwaway estimator first takes every path once, so the per-thread
  // retune scratch and the obs registrations exist before the window.
  auto warm = make(9);
  warm.on_sound_frame(t0());
  drive_retune_paths(warm, channel.phy(), t0());

  auto est = make();
  est.on_sound_frame(t0());  // the first retune sizes this link's maps
  const auto updates = est.update_count();
  testsupport::AllocationWindow window;
  drive_retune_paths(est, channel.phy(), t0());
  EXPECT_GE(est.update_count(), updates + 8);
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes";
}

// --- Equivalence with the unfused ladder -----------------------------------

/// build_slot_map as it was before the fused in-place ladder: a perturbed
/// SNR copy with one Rng::normal per carrier, four bit-loaded candidates
/// built carrier by carrier, and a from_carriers copy of the winner.
ToneMap reference_slot_map(const PlcChannel& ch, sim::Rng& rng, int slot,
                           sim::Time now, double margin_db, std::uint32_t id,
                           const ChannelEstimator::Config& cfg) {
  const PhyParams& phy = ch.phy();
  std::vector<double> snr = ch.static_snr_db(0, 1, slot, now);
  const double offset = ch.fast_offset_db(1, now) * cfg.offset_tracking;
  const double sigma = 0.3 * cfg.uncertainty_db;
  for (double& v : snr) {
    v -= offset;
    if (sigma > 0.0) v += rng.normal(0.0, sigma);
  }
  const double depth = std::clamp(1.0 - cfg.uncertainty_db / 6.0, 0.0, 1.0);
  const auto& true_snr = ch.static_snr_db(0, 1, slot, now);
  ToneMap best;
  double best_score = -1.0;
  double best_expected = 0.0;
  for (double m : {margin_db, margin_db - 1.5 * depth, margin_db - 3.0 * depth,
                   margin_db - 4.5 * depth}) {
    std::vector<Modulation> carriers;
    for (double v : snr) carriers.push_back(pick_modulation(v - m));
    ToneMap candidate = ToneMap::from_carriers(std::move(carriers), phy, 0.0, id);
    const double expected =
        std::min(candidate.pb_error_probability(true_snr, phy), 0.45);
    const double score = candidate.phy_rate_mbps() * (1.0 - expected);
    if (score > best_score) {
      best_score = score;
      best_expected = expected;
      best = std::move(candidate);
    }
  }
  return ToneMap::from_carriers(best.carriers(), phy, best_expected, id);
}

/// The rate clamp as it was before it became ToneMap::clamp_to_rate: demote
/// a copy of the carriers one enumerator step at a time (the next-lower
/// constellation) and rebuild with from_carriers.
ToneMap reference_clamp(const ToneMap& map, double rate_mbps, const PhyParams& phy,
                        std::uint32_t id) {
  if (map.ble_mbps() <= rate_mbps) return map;
  std::vector<Modulation> carriers = map.carriers();
  const double bits_target = rate_mbps * phy.symbol.us() /
                             (phy.fec_rate * (1.0 - map.expected_pberr()));
  double bits = 0.0;
  for (Modulation m : carriers) bits += bits_per_symbol(m);
  for (int pass = 0; pass < kModulationCount && bits > bits_target; ++pass) {
    for (Modulation& m : carriers) {
      if (bits <= bits_target) break;
      const auto lower = static_cast<Modulation>(std::max(0, static_cast<int>(m) - 1));
      bits -= bits_per_symbol(m) - bits_per_symbol(lower);
      m = lower;
    }
  }
  return ToneMap::from_carriers(std::move(carriers), phy, map.expected_pberr(), id);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_map(const ToneMap& got, const ToneMap& want) {
  ASSERT_EQ(got.carriers(), want.carriers());
  EXPECT_EQ(got.id(), want.id());
  EXPECT_EQ(bits_of(got.ble_mbps()), bits_of(want.ble_mbps()));
  EXPECT_EQ(bits_of(got.expected_pberr()), bits_of(want.expected_pberr()));
  EXPECT_EQ(bits_of(got.phy_rate_mbps()), bits_of(want.phy_rate_mbps()));
}

/// A two-outlet link with `loss_db` of lumped cable loss.
struct LossyLink {
  explicit LossyLink(double loss_db) {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    grid.add_cable(a, b, 10.0, loss_db);
    channel.attach_station(0, a);
    channel.attach_station(1, b);
  }
  grid::PowerGrid grid;
  PlcChannel channel{grid, PhyParams::hpav()};
};

/// Every slot at a sweep of margins, through one reused output map (each
/// call rebuilds it over stale content), against the reference ladder on
/// an identically seeded Rng; each result also through both clamps.
void expect_ladder_matches_reference(const PlcChannel& channel, std::uint64_t seed,
                                     const ChannelEstimator::Config& cfg) {
  const PhyParams& phy = channel.phy();
  const sim::Time now = sim::days(1) + sim::hours(12);
  const ChannelEstimator est(channel, 0, 1, sim::Rng{seed}, cfg);
  sim::Rng ref_rng{seed};
  ToneMap map;
  std::uint32_t id = 0;
  for (const double margin : {-2.0, 0.0, 1.5, 4.0, 9.0}) {
    for (int slot = 0; slot < phy.tone_map_slots; ++slot) {
      SCOPED_TRACE(::testing::Message() << "margin " << margin << " slot " << slot);
      ++id;
      est.build_slot_map(slot, now, margin, id, map);
      const ToneMap want =
          reference_slot_map(channel, ref_rng, slot, now, margin, id, cfg);
      expect_same_map(map, want);
      for (const double rate : {phy.single_pb_symbol_rate_mbps(), 25.0}) {
        ToneMap clamped = map;
        clamped.clamp_to_rate(rate, id + 1000);
        expect_same_map(clamped, reference_clamp(want, rate, phy, id + 1000));
      }
    }
  }
}

TEST(EstimatorLadder, FusedInPlaceLadderMatchesTheUnfusedReference) {
  // A quiet link (~41 dB, every rung near the top constellation) and a
  // lossy one (~13 dB, rungs straddling the thresholds). A fresh estimator
  // has no samples, so its uncertainty is the configured one: from a
  // one-rung ladder (depth 0) to full depth with no perturbation at all.
  for (const double loss_db : {22.0, 50.0}) {
    const LossyLink link(loss_db);
    for (const std::uint64_t seed : {1ULL, 2ULL, 42ULL}) {
      for (const double uncertainty : {12.0, 4.5, 3.0, 1.0, 0.25, 0.0}) {
        for (const double tracking : {0.0, 0.5}) {
          SCOPED_TRACE(::testing::Message() << "loss " << loss_db << " seed " << seed);
          SCOPED_TRACE(::testing::Message() << "U " << uncertainty << "/" << tracking);
          ChannelEstimator::Config cfg;
          cfg.uncertainty_db = uncertainty;
          cfg.offset_tracking = tracking;
          expect_ladder_matches_reference(link.channel, seed, cfg);
        }
      }
    }
  }
}

}  // namespace
}  // namespace efd::plc
