#include "src/grid/campus.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "src/sim/rng.hpp"
#include "src/sim/sharded.hpp"

namespace efd::grid {

namespace {

// Signal speed on mains copper (~0.6 c) vs. air. Propagation is the floor
// of the lookahead, never the bulk of it — the gateway's store-and-forward
// step dominates.
constexpr double kPlcNsPerMeter = 5.6;
constexpr double kWifiNsPerMeter = 3.34;

/// Minimum frame a gateway must fully receive before it can forward.
constexpr double kMinFrameBits = 64.0 * 8.0;

/// Office gateways. The processing floors set the window granularity of the
/// conservative protocol: ~0.5 ms of lookahead means a 200 ms campus run
/// synchronizes a few hundred times, not millions.
constexpr GatewayConstants kCampusGateways{200.0, 150.0, 2.0, 4.0, 750'000,
                                           400'000};

/// Riser cables through the shaft (the path the paper's testbed measured
/// as barely usable for direct PLC) and building-to-building WiFi bridges.
constexpr CrossingDraws kCampusDraws{
    {10.0, 35.0}, {40.0, 60.0}, {40.0, 150.0}, {65.0, 80.0}};

}  // namespace

const char* to_string(BoundaryKind k) {
  switch (k) {
    case BoundaryKind::kPlcBackbone: return "plc_backbone";
    case BoundaryKind::kWifiBridge: return "wifi_bridge";
  }
  return "unknown";
}

sim::Time derive_lookahead(const GatewayConstants& g, BoundaryKind kind,
                           double length_m, double budget_db) {
  const bool plc = kind == BoundaryKind::kPlcBackbone;
  const double prop_ns = (plc ? kPlcNsPerMeter : kWifiNsPerMeter) * length_m;
  // Budget-limited forwarding rate: every dB of crossing attenuation costs
  // carriers/bit-loading, so the worst crossings serialize slowest. The
  // clamp keeps even an absurd budget from zeroing the rate.
  const double rate_mbps =
      std::clamp((plc ? g.plc_mbps : g.wifi_mbps) - g.mbps_per_db * budget_db,
                 g.min_mbps, g.plc_mbps);
  const double ser_ns = kMinFrameBits / rate_mbps * 1e3;
  const std::int64_t floor_ns = plc ? g.plc_floor_ns : g.wifi_floor_ns;
  return sim::Time{floor_ns + static_cast<std::int64_t>(prop_ns + ser_ns)};
}

std::vector<BoundaryLink> chain_and_bridge_links(int n_cells, int per_group,
                                                 const CrossingDraws& draws,
                                                 const GatewayConstants& g,
                                                 sim::Rng& rng) {
  std::vector<BoundaryLink> links;
  const auto add = [&](int a, int b, BoundaryKind kind,
                       const CrossingDraws::Range& m,
                       const CrossingDraws::Range& db) {
    BoundaryLink l;
    l.board_a = a;
    l.board_b = b;
    l.kind = kind;
    l.length_m = rng.uniform(m.lo, m.hi);
    l.budget_db = rng.uniform(db.lo, db.hi);
    l.lookahead = derive_lookahead(g, l.kind, l.length_m, l.budget_db);
    links.push_back(l);
  };
  for (int c = 0; c + 1 < n_cells; ++c) {
    if (c / per_group != (c + 1) / per_group) continue;
    add(c, c + 1, BoundaryKind::kPlcBackbone, draws.backbone_m,
        draws.backbone_db);
  }
  const int n_groups = (n_cells + per_group - 1) / per_group;
  for (int grp = 0; grp + 1 < n_groups; ++grp) {
    add(grp * per_group, (grp + 1) * per_group, BoundaryKind::kWifiBridge,
        draws.bridge_m, draws.bridge_db);
  }
  return links;
}

CampusTopology CampusTopology::generate(const CampusConfig& cfg) {
  assert(cfg.n_outlets >= 1);
  assert(cfg.outlets_per_board >= 1);
  assert(cfg.boards_per_building >= 1);

  CampusTopology t;
  t.cfg_ = cfg;
  t.n_boards_ = (cfg.n_outlets + cfg.outlets_per_board - 1) / cfg.outlets_per_board;
  t.n_buildings_ =
      (t.n_boards_ + cfg.boards_per_building - 1) / cfg.boards_per_building;
  t.building_of_.resize(static_cast<std::size_t>(t.n_boards_));
  for (int b = 0; b < t.n_boards_; ++b) {
    t.building_of_[static_cast<std::size_t>(b)] = b / cfg.boards_per_building;
  }
  // Riser chains within each building, WiFi bridges between the buildings'
  // ground-floor boards. (The hybrid story of the paper: where the copper
  // gives out, the radio carries the traffic.)
  sim::Rng rng = sim::Rng{cfg.seed}.fork(0xCA3905);
  t.links_ = chain_and_bridge_links(t.n_boards_, cfg.boards_per_building,
                                    kCampusDraws, kCampusGateways, rng);
  return t;
}

int CampusTopology::outlets_on_board(int board) const {
  const int first = board * cfg_.outlets_per_board;
  return std::min(cfg_.outlets_per_board, cfg_.n_outlets - first);
}

int CampusTopology::station_outlet(int board, int k) const {
  const int outlets = outlets_on_board(board);
  const int stations = std::min(cfg_.stations_per_board, outlets);
  assert(k >= 0 && k < stations);
  return k * outlets / stations;
}

void CampusTopology::build_board_grid(int board, PowerGrid& grid) const {
  // Board-local structure comes from a per-board fork, so the grid a board
  // gets never depends on which shard (or thread) builds it.
  sim::Rng rng = sim::Rng{cfg_.seed}.fork(0xB0A2D000 + static_cast<std::uint64_t>(board));
  const int outlets = outlets_on_board(board);

  for (int i = 0; i < outlets; ++i) {
    std::string name = "b";
    name += std::to_string(board);
    name += 'o';
    name += std::to_string(i);
    grid.add_node(std::move(name));
  }

  // Outlet 0 is the panel. Runs mostly daisy-chain room to room, with the
  // occasional home-run straight back to the panel; a few joints carry
  // lumped loss (junction boxes, a sub-panel).
  for (int i = 1; i < outlets; ++i) {
    const int parent = rng.bernoulli(0.3) ? 0 : i - 1;
    const double length = rng.uniform(3.0, 14.0);
    const double extra = rng.bernoulli(0.15) ? rng.uniform(1.0, 4.0) : 0.0;
    grid.add_cable(parent, i, length, extra);
  }

  // Office appliance population: roughly one load per outlet plus a few
  // stubs, drawn from a fixed weighted palette.
  static constexpr ApplianceType kPalette[] = {
      ApplianceType::kWorkstation, ApplianceType::kWorkstation,
      ApplianceType::kMonitor,     ApplianceType::kLightBank,
      ApplianceType::kPhoneCharger, ApplianceType::kHvac,
      ApplianceType::kPrinter,     ApplianceType::kFridge,
      ApplianceType::kPassiveStub, ApplianceType::kPassiveStub,
  };
  constexpr int kPaletteSize = static_cast<int>(std::size(kPalette));
  for (int i = 0; i < outlets; ++i) {
    if (rng.bernoulli(0.2)) continue;  // empty outlet
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, kPaletteSize - 1));
    const std::uint64_t seed =
        cfg_.seed ^ (static_cast<std::uint64_t>(board) << 20) ^
        static_cast<std::uint64_t>(i);
    grid.add_appliance(make_appliance(kPalette[pick], i, seed));
  }
}

std::string CampusTopology::to_json(int n_shards) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"n_outlets\": " + std::to_string(cfg_.n_outlets);
  out += ",\n  \"n_boards\": " + std::to_string(n_boards_);
  out += ",\n  \"n_buildings\": " + std::to_string(n_buildings_);
  out += ",\n  \"n_shards\": " + std::to_string(std::clamp(n_shards, 1, n_boards_));
  out += ",\n  \"seed\": " + std::to_string(cfg_.seed);
  out += ",\n  \"boards\": [";
  for (int b = 0; b < n_boards_; ++b) {
    out += b == 0 ? "\n" : ",\n";
    out += "    {\"board\": " + std::to_string(b);
    out += ", \"building\": " + std::to_string(building_of(b));
    out += ", \"outlets\": " + std::to_string(outlets_on_board(b));
    out += ", \"stations\": " +
           std::to_string(std::min(cfg_.stations_per_board, outlets_on_board(b)));
    out += ", \"shard\": " +
           std::to_string(sim::block_shard(b, n_shards, n_boards_)) + "}";
  }
  out += "\n  ],\n  \"boundary_links\": [";
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const BoundaryLink& l = links_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"a\": " + std::to_string(l.board_a);
    out += ", \"b\": " + std::to_string(l.board_b);
    out += ", \"kind\": \"" + std::string(to_string(l.kind)) + "\"";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", l.length_m);
    out += ", \"length_m\": " + std::string(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", l.budget_db);
    out += ", \"budget_db\": " + std::string(buf);
    out += ", \"lookahead_ns\": " + std::to_string(l.lookahead.ns());
    out += ", \"cross_shard\": ";
    out += sim::block_shard(l.board_a, n_shards, n_boards_) !=
                   sim::block_shard(l.board_b, n_shards, n_boards_)
               ? "true"
               : "false";
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace efd::grid
