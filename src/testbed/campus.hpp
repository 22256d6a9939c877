#pragma once

// CampusWorld — a multi-board campus on the CellWorld runtime (DESIGN.md
// §14, §15). One distribution board = one engine cell: the board's
// PowerGrid, PlcChannel and PlcNetwork (plus, at WiFi-bridge endpoints, a
// small WifiNetwork). The ONLY cross-board interaction is a BoundaryEvent
// through a gateway station, so the campus digest is byte-identical for
// every EFD_SHARDS value — the property the scale bench and the sharded
// tier-1 tests pin.
//
// What is the campus's own: the office stations, the traffic draws, the
// WiFi-bridge hop (AP -> roof radio -> neighbor's AP) and the bridge ->
// backbone fallback of a partitioned bridge; partitioned backbone
// crossings drop traffic deterministically.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/grid/campus.hpp"
#include "src/testbed/cell_world.hpp"

namespace efd::testbed {

struct CampusRunConfig : CellRunConfig {
  grid::CampusConfig campus;
  /// Mean spacing of per-board traffic ticks (each offers one packet).
  sim::Time traffic_interval = sim::milliseconds(4);
  /// Probability a generated packet targets a neighboring board (one
  /// boundary crossing; the campus does not route multi-hop).
  double p_remote = 0.3;
};

struct CampusResult : CellResult {
  std::uint64_t packets_local = 0;     ///< offered, intra-board
  std::uint64_t packets_remote = 0;    ///< offered, cross-board
  std::uint64_t delivered = 0;         ///< handed to a destination station
  int n_boards = 0;
  /// Per-board digest stream values, in board order — the fault-domain
  /// determinism artifact (byte-identical across shard counts).
  std::vector<std::uint64_t> board_digests;
};

using CampusCheckpoint = CellCheckpoint;

class CampusWorld : public CellWorld {
 public:
  explicit CampusWorld(const CampusRunConfig& cfg);
  ~CampusWorld() override;

  [[nodiscard]] CampusResult result() const;
  [[nodiscard]] const grid::CampusTopology& topology() const { return topo_; }

 private:
  struct BoardWorld;

  std::unique_ptr<Cell> make_cell(int b) override;
  void offer(Cell& c) override;
  void deliver(Cell& c, std::uint32_t kind, net::Packet& p) override;
  void fold(sim::Fnv1a64& f, const Cell& c) const override;
  /// A bridge crossing that is not rerouted takes the local AP -> roof
  /// radio WiFi hop first; the radio posts it when the frame clears.
  bool local_hop(Cell& c, int ci, const net::Packet& p) override;

  CampusRunConfig cfg_;
  grid::CampusTopology topo_;
};

/// Build, run and summarize one campus in a single call.
[[nodiscard]] CampusResult run_campus(const CampusRunConfig& cfg);

}  // namespace efd::testbed
