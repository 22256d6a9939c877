// The saturated PLC/WiFi frame exchange: what a frame costs in heap
// allocations, and that the tone map a PLC frame borrows from its sender's
// estimator is still the map build_frame picked when the medium computes the
// frame's PB error probability, even after another frame of the same
// collision round retuned its own estimator.
//
// Includes alloc_count.hpp, so this binary owns the global operator
// new/delete replacements.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "alloc_count.hpp"
#include "src/grid/power_grid.hpp"
#include "src/net/sources.hpp"
#include "src/plc/network.hpp"
#include "src/wifi/network.hpp"

namespace efd {
namespace {

using testsupport::AllocationWindow;

/// Heap allocations allowed per frame after warm-up: 11491 over 2661
/// frames here, 4.3 per frame. Nearly all are the transmit queues'
/// std::deque blocks, one freed and one allocated every eight or nine
/// entries; the rest are PB-error memo nodes for new tone map ids. Frames,
/// completions and reassembly allocate nothing. Copying the tone map into
/// each frame and its completion cost 42 per frame, four of them 7336-byte
/// bits vectors.
constexpr double kPinnedAllocationsPerFrame = 4.5;

/// One PLC pair on a power strip and one WiFi pair 4 m apart, each fed
/// 400 Mb/s of UDP (far above capacity).
struct SaturatedPairs {
  sim::Simulator sim;
  grid::PowerGrid grid;
  std::unique_ptr<plc::PlcChannel> channel;
  std::unique_ptr<plc::PlcNetwork> plc;
  std::unique_ptr<wifi::WifiNetwork> wifi;
  std::unique_ptr<net::UdpSource> plc_source;
  std::unique_ptr<net::UdpSource> wifi_source;
  std::uint64_t plc_rx = 0;
  std::uint64_t wifi_rx = 0;
  std::uint64_t wifi_frames = 0;

  SaturatedPairs() {
    const int strip = grid.add_node("strip");
    channel = std::make_unique<plc::PlcChannel>(grid, plc::PhyParams::hpav());
    plc = std::make_unique<plc::PlcNetwork>(sim, *channel, sim::Rng{9});
    for (int i = 0; i < 2; ++i) {
      const int outlet = grid.add_node(std::to_string(i).insert(0, 1, 's'));
      grid.add_cable(strip, outlet, 2.0 + i);
      channel->attach_station(i, outlet);
      plc->add_station(i, outlet);
    }
    wifi = std::make_unique<wifi::WifiNetwork>(sim, sim::Rng{3});
    wifi->add_station(0, 0.0, 0.0);
    wifi->add_station(1, 4.0, 0.0);

    plc->station(1).mac().set_rx_handler(
        [this](const net::Packet&, sim::Time) { ++plc_rx; });
    wifi->station(1).set_rx_handler(
        [this](const net::Packet&, sim::Time) { ++wifi_rx; });
    wifi->medium().add_mcs_listener([this](const wifi::McsRecord&) { ++wifi_frames; });

    net::UdpSource::Config cfg;
    cfg.src = 0;
    cfg.dst = 1;
    cfg.rate_bps = 400e6;
    plc_source = std::make_unique<net::UdpSource>(sim, plc->station(0).mac(), cfg);
    wifi_source = std::make_unique<net::UdpSource>(sim, wifi->station(0), cfg);
  }

  [[nodiscard]] std::uint64_t plc_frames() const {
    return plc->station(0).mac().frames_transmitted();
  }
};

TEST(AllocationPins, SaturatedFrameExchangeCopiesNoToneMap) {
  SaturatedPairs w;
  w.plc_source->run(sim::Time{}, sim::seconds(6));
  w.wifi_source->run(sim::Time{}, sim::seconds(6));
  // Warm-up: tone maps exist, queues, rings, frame buffers and the event
  // slab have reached their working size.
  w.sim.run_until(sim::seconds(2));

  const std::uint64_t plc_frames0 = w.plc_frames();
  const std::uint64_t wifi_frames0 = w.wifi_frames;
  const std::uint64_t plc_rx0 = w.plc_rx;
  const std::uint64_t wifi_rx0 = w.wifi_rx;
  AllocationWindow window;
  w.sim.run_until(sim::seconds(5));
  const std::uint64_t allocations = window.count();
  const std::uint64_t large = window.large_count();

  const std::uint64_t frames =
      (w.plc_frames() - plc_frames0) + (w.wifi_frames - wifi_frames0);
  ASSERT_GT(w.plc_frames() - plc_frames0, 500u);
  ASSERT_GT(w.wifi_frames - wifi_frames0, 1000u);
  ASSERT_GT(w.plc_rx - plc_rx0, 10000u);
  ASSERT_GT(w.wifi_rx - wifi_rx0, 10000u);
  // A ToneMap's bits vector alone is 917 x 8 = 7336 bytes.
  EXPECT_EQ(large, 0u) << "a frame copied a tone map";
  EXPECT_LE(static_cast<double>(allocations),
            kPinnedAllocationsPerFrame * static_cast<double>(frames))
      << allocations << " allocations over " << frames << " frames";
}

/// Two pairs whose frames collide and are both captured: 0 -> 1 and 2 -> 3
/// each sit behind their own lossy sub-panel, so every receiver hears its
/// own sender well above the other one. 2 -> 3 is saturated; 0 -> 1 sends
/// one packet every 2 ms, so its frames are short and a collision never
/// ends in a SACK collision.
TEST(CollisionRound, BorrowedToneMapsMatchTheirBuildTimeCopies) {
  sim::Simulator sim;
  grid::PowerGrid grid;
  const int strip = grid.add_node("strip");
  plc::PlcChannel channel(grid, plc::PhyParams::hpav());
  plc::PlcNetwork network(sim, channel, sim::Rng{9});
  int outlets[4];
  for (int pair = 0; pair < 2; ++pair) {
    const int tx = 2 * pair;
    outlets[tx] = grid.add_node(std::to_string(tx).insert(0, 1, 'o'));
    grid.add_cable(strip, outlets[tx], 5.0, 12.0);
    outlets[tx + 1] = grid.add_node(std::to_string(tx + 1).insert(0, 1, 'o'));
    grid.add_cable(outlets[tx], outlets[tx + 1], 3.0);
  }
  for (int i = 0; i < 4; ++i) {
    channel.attach_station(i, outlets[i]);
    network.add_station(i, outlets[i]);
  }

  // Copies of the maps each link's frames were built with, taken at the
  // first decode of a round: every frame of a round is built before any
  // frame is received, and only a receive can retune.
  std::map<net::StationId, plc::ToneMap> built;
  std::map<net::StationId, std::uint32_t> built_id;
  sim::Time round_start{-1};
  bool retuned_in_round = false;
  int decodes = 0;
  int decodes_after_an_in_round_retune = 0;
  const auto map_in_force = [&](net::StationId src, int slot) -> const plc::ToneMap& {
    plc::ChannelEstimator& est = network.estimator(src + 1, src);
    return est.has_tone_maps()
               ? est.tone_maps().slots[static_cast<std::size_t>(slot)]
               : est.tone_maps().robo;
  };
  network.medium().set_decode_observer(
      [&](const plc::PlcFrame& f, net::StationId rx, double pb_error) {
        if (f.start != round_start) {
          round_start = f.start;
          retuned_in_round = false;
          for (net::StationId src : {0, 2}) {
            const plc::ToneMap& tm = map_in_force(src, f.slot);
            built[src] = tm;
            built_id[src] = tm.id();
          }
        }
        for (net::StationId src : {0, 2}) {
          if (src != f.src && map_in_force(src, f.slot).id() != built_id[src]) {
            retuned_in_round = true;
          }
        }
        ++decodes;
        if (retuned_in_round) ++decodes_after_an_in_round_retune;

        const plc::ToneMap& copy = built.at(f.src);
        ASSERT_EQ(copy.id(), f.tone_map_id);
        ASSERT_EQ(f.tone_map->id(), f.tone_map_id);
        EXPECT_EQ(f.tone_map->carriers(), copy.carriers());
        EXPECT_EQ(f.tone_map->ble_mbps(), copy.ble_mbps());
        const auto snr = channel.snr_db(f.src, rx, f.slot, f.start);
        EXPECT_EQ(f.tone_map->pb_error_probability(snr, channel.phy()),
                  copy.pb_error_probability(snr, channel.phy()));
        EXPECT_EQ(pb_error,
                  channel.pb_error_probability(copy, f.src, rx, f.slot, f.start));
      });

  net::UdpSource::Config bulk;
  bulk.src = 2;
  bulk.dst = 3;
  bulk.rate_bps = 400e6;
  net::UdpSource background(sim, network.station(2).mac(), bulk);
  net::UdpSource::Config light;
  light.src = 0;
  light.dst = 1;
  light.rate_bps = 6e6;  // one 1470-byte packet about every 2 ms
  net::UdpSource probes(sim, network.station(0).mac(), light);
  background.run(sim::Time{}, sim::seconds(20));
  probes.run(sim::Time{}, sim::seconds(20));
  sim.run_until(sim::seconds(20));

  EXPECT_GT(network.medium().collisions(), 100u);
  EXPECT_GT(decodes, 1000);
  // The property is only exercised by a frame decoded after another frame
  // of its round retuned that frame's estimator.
  EXPECT_GT(decodes_after_an_in_round_retune, 0);
}

}  // namespace
}  // namespace efd
