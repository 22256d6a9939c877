#pragma once

// Campus-scale topology for the sharded engine (DESIGN.md §14): many
// distribution boards, each an independent PowerGrid, joined by explicit
// boundary crossings. The paper's testbed (§3.1) found PLC across
// distribution boards "challenging" — the basement path eats most of the
// link budget — which is exactly what makes boards natural partition
// boundaries: almost all channel interaction is intra-board, and the rare
// cross-board traffic goes through a gateway (a PLC backbone repeater or a
// building-to-building WiFi bridge) slow enough to give the conservative
// protocol real lookahead.

#include <cstdint>
#include <string>
#include <vector>

#include "src/grid/power_grid.hpp"
#include "src/sim/time.hpp"

namespace efd::sim {
class Rng;
}  // namespace efd::sim

namespace efd::grid {

enum class BoundaryKind {
  kPlcBackbone,  ///< riser/feeder cable between boards of one building
  kWifiBridge,   ///< point-to-point WiFi link between buildings
};

[[nodiscard]] const char* to_string(BoundaryKind k);

/// One undirected crossing between two distribution boards. The engine
/// turns it into two directed links with the same lookahead.
struct BoundaryLink {
  int board_a = 0;
  int board_b = 0;
  BoundaryKind kind = BoundaryKind::kPlcBackbone;
  double length_m = 0.0;
  double budget_db = 0.0;    ///< attenuation budget of the crossing
  sim::Time lookahead{};     ///< derived: see derive_lookahead()
};

/// The constants that price a workload's crossings in derive_lookahead():
/// office gateways and NAN data concentrators differ only in these.
struct GatewayConstants {
  double plc_mbps = 0.0;   ///< PLC forwarding rate at a 0 dB budget, and the cap
  double wifi_mbps = 0.0;  ///< WiFi forwarding rate at a 0 dB budget
  double mbps_per_db = 0.0;  ///< forwarding rate lost per dB of budget
  double min_mbps = 0.0;   ///< rate floor of the worst crossings
  /// Processing floors (decode + re-encode + queue) per gateway medium.
  std::int64_t plc_floor_ns = 0;
  std::int64_t wifi_floor_ns = 0;
};

/// Conservative delivery-time bound for one crossing: propagation over
/// `length_m`, plus store-and-forward serialization of a minimum frame at
/// the rate the crossing's attenuation budget supports, plus the gateway's
/// processing floor. Strictly positive by construction.
[[nodiscard]] sim::Time derive_lookahead(const GatewayConstants& g,
                                         BoundaryKind kind, double length_m,
                                         double budget_db);

/// Uniform draw ranges of one workload's crossing lengths and budgets.
struct CrossingDraws {
  struct Range {
    double lo = 0.0;
    double hi = 0.0;
  };
  Range backbone_m, backbone_db, bridge_m, bridge_db;
};

/// Chain-and-bridge crossings over `n_cells` cells grouped `per_group` to a
/// group (a building's boards, a feeder's transformers): consecutive cells
/// of one group share a PLC backbone, and the first cells of consecutive
/// groups are joined by a WiFi bridge. All backbone links come first; each
/// link draws its length, then its budget, from `rng`.
[[nodiscard]] std::vector<BoundaryLink> chain_and_bridge_links(
    int n_cells, int per_group, const CrossingDraws& draws,
    const GatewayConstants& g, sim::Rng& rng);

struct CampusConfig {
  int n_outlets = 100;
  int outlets_per_board = 20;
  int stations_per_board = 4;
  int boards_per_building = 8;
  std::uint64_t seed = 1;
};

/// Deterministic campus generator: `generate(cfg)` always produces the same
/// boards, wiring, appliances and crossings for the same config, regardless
/// of shard count or thread schedule — board-local structure comes from a
/// per-board forked Rng stream.
class CampusTopology {
 public:
  [[nodiscard]] static CampusTopology generate(const CampusConfig& cfg);

  [[nodiscard]] const CampusConfig& config() const { return cfg_; }
  [[nodiscard]] int n_boards() const { return n_boards_; }
  [[nodiscard]] int n_buildings() const { return n_buildings_; }
  [[nodiscard]] int building_of(int board) const {
    return building_of_[static_cast<std::size_t>(board)];
  }
  [[nodiscard]] const std::vector<BoundaryLink>& links() const { return links_; }

  /// Outlets wired to this board's panel (the last board takes the
  /// remainder of cfg.n_outlets).
  [[nodiscard]] int outlets_on_board(int board) const;

  /// Outlet index (within the board) where station `k` of the board plugs
  /// in; station 0 sits at outlet 0, next to the panel — it is the board's
  /// boundary gateway.
  [[nodiscard]] int station_outlet(int board, int k) const;

  /// Populate `grid` with this board's wiring: outlet nodes, panel-rooted
  /// cable runs, and the appliance population. Deterministic per board.
  void build_board_grid(int board, PowerGrid& grid) const;

  /// The whole campus as JSON: boards (building, outlets, stations, shard
  /// under `n_shards`, split as sim::block_shard), crossings, and summary
  /// counts. Drives the `efd topology` subcommand.
  [[nodiscard]] std::string to_json(int n_shards) const;

 private:
  CampusConfig cfg_;
  int n_boards_ = 0;
  int n_buildings_ = 0;
  std::vector<int> building_of_;
  std::vector<BoundaryLink> links_;
};

}  // namespace efd::grid
