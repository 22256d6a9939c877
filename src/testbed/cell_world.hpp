#pragma once

// CellWorld — the one runtime both sharded workloads run on (DESIGN.md
// §14.5, §15). A world is a set of cells (a campus distribution board, a NAN
// transformer) on the sharded event engine, one engine cell each, joined
// only by the crossings of a topology's links(). Each cell's PowerGrid,
// PlcChannel/PlcNetwork and optional WifiNetwork live entirely inside the
// cell, touched only by the shard thread that owns it, so every digest is
// byte-identical for any EFD_SHARDS value.
//
// The runtime owns everything that does not depend on the workload: the
// engine built from the links, the per-cell crossings table, the jittered
// tick chain, the boundary-arrival fold and dead-cell drop, egress and
// crossing posts through a per-cell GatewayFailover, fault-plan slicing
// with one hook table, run/checkpoint/restore, and the result tail. A
// binding (CampusWorld, NanWorld) derives from it and supplies the cells:
// station wiring, traffic draws, how an arrival is delivered, and the
// order of its own digest fold.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/grid/power_grid.hpp"
#include "src/net/packet.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sharded.hpp"
#include "src/sim/time.hpp"

namespace efd::fault {
class FaultInjector;
}  // namespace efd::fault
namespace efd::hybrid {
class GatewayFailover;
}  // namespace efd::hybrid
namespace efd::plc {
class PlcChannel;
class PlcNetwork;
}  // namespace efd::plc
namespace efd::wifi {
class WifiNetwork;
}  // namespace efd::wifi

namespace efd::testbed {

/// Run settings every cell world shares.
struct CellRunConfig {
  int n_shards = 1;
  sim::Time duration = sim::milliseconds(200);
  /// Cell-domain fault plan: kBoardBlackout / kBoardBrownout / kPlcBlackout
  /// / kWifiJam target a cell index, kLinkPartition a topology link index.
  /// Empty = fault-free; the fault-free digest does not depend on it.
  fault::FaultPlan faults;
  /// Soft per-mailbox capacity forwarded to the engine (0 = unbounded).
  std::size_t mailbox_capacity = 0;
  /// Shard-watchdog wall-clock budget (0 disables). The default is far
  /// above any legitimate window's wall time, so it only fires on real
  /// stalls/deadlocks — failing CI fast instead of hanging it.
  std::int64_t watchdog_budget_ns = 30'000'000'000;
};

/// The result tail every cell world reports.
struct CellResult {
  /// Order-exact fold of every cell's delivery and boundary streams,
  /// combined in cell order. Invariant across shard counts, EFD_SIMD legs
  /// and reset-and-rebuild replays.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;            ///< engine events across all shards
  std::uint64_t boundary_posted = 0;
  std::uint64_t boundary_delivered = 0;
  int n_shards = 0;
  std::vector<sim::ShardedSimulator::ShardStats> shards;
  /// max/mean of per-shard busy wall time; 1.0 = perfectly balanced.
  double load_balance = 1.0;

  /// Concatenated per-cell fault/recovery traces in cell order; empty on
  /// fault-free runs. Byte-identical across shard counts.
  std::string fault_trace;
  std::uint64_t fault_events = 0;      ///< trace records across all cells
  std::uint64_t dead_drops = 0;        ///< ingress dropped at dead cells
  std::uint64_t partition_drops = 0;   ///< egress dropped at kDown crossings
  std::uint64_t failovers = 0;         ///< bridge -> backbone reroutes
  std::uint64_t failbacks = 0;         ///< primary-path restorations
  std::uint64_t backpressure_waits = 0;
  std::uint64_t mailbox_peak = 0;      ///< high-water boundary-mailbox depth
};

/// Fingerprint of a world at a quiescent horizon: the engine checkpoint
/// plus the world-level digest. Restore is reset-and-replay
/// (CellWorld::restore), verified against both digests.
struct CellCheckpoint {
  sim::Time t{};                  ///< horizon the checkpoint was taken at
  sim::EngineCheckpoint engine;
  std::uint64_t world_digest = 0; ///< CellResult::digest at t
};

class CellWorld {
 public:
  virtual ~CellWorld();
  CellWorld(const CellWorld&) = delete;
  CellWorld& operator=(const CellWorld&) = delete;

  /// Advance the whole world through the configured duration.
  void run();
  /// Advance through `end` (inclusive); callable repeatedly with
  /// increasing horizons — run() is run_until(duration).
  void run_until(sim::Time end);

  /// Fingerprint the quiescent world (between run_until calls).
  [[nodiscard]] CellCheckpoint checkpoint() const;

  /// Reset-and-replay restore: drop all engine/world state, rebuild, and
  /// deterministically replay to cp.t. Returns true when both the engine
  /// fingerprint and the world digest match the checkpoint (FNV-1a
  /// verified); on false the world diverged (or cp was corrupted) and is
  /// left at cp.t for inspection.
  [[nodiscard]] bool restore(const CellCheckpoint& cp);

  /// Reset the engine and rebuild every cell from scratch; a subsequent
  /// run() replays the identical world (same digest).
  void reset_and_rebuild();

  [[nodiscard]] sim::ShardedSimulator& engine() { return *engine_; }

 protected:
  /// Station-id space: cell c owns ids [c*64, c*64+64); station 0 of each
  /// cell is its boundary gateway.
  static constexpr int kIdStride = 64;
  /// Flows at or above this carry cross-cell traffic; the flow id encodes
  /// the final destination station, which survives the per-hop address
  /// rewrites.
  static constexpr int kRemoteFlowBase = 1 << 24;
  /// BoundaryEvent::kind of a crossing.
  static constexpr std::uint32_t kKindBackbone = 0;
  static constexpr std::uint32_t kKindBridge = 1;

  /// One boundary crossing as seen from a cell.
  struct Crossing {
    int neighbor = 0;
    grid::BoundaryKind kind = grid::BoundaryKind::kPlcBackbone;
    std::int64_t lookahead_ns = 0;
    int link = -1;  ///< index into the topology's links(); kLinkPartition targets it
  };

  /// The state every cell has; a binding derives its cell type from it.
  /// After build() only the shard thread executing the cell touches any of
  /// it.
  struct Cell {
    explicit Cell(int cell);
    virtual ~Cell();
    Cell(const Cell&) = delete;  // handlers hold the cell's address
    Cell& operator=(const Cell&) = delete;

    int index = 0;
    int n_stations = 0;
    grid::PowerGrid grid;
    std::unique_ptr<plc::PlcChannel> channel;
    std::unique_ptr<plc::PlcNetwork> plc;
    std::unique_ptr<wifi::WifiNetwork> wifi;  ///< null when the cell has no radio
    sim::Rng rng{0};  ///< the tick chain's and the traffic draws' stream

    /// Fault-domain state (null on fault-free runs; the fault-free digest
    /// and allocation profile are untouched).
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<hybrid::GatewayFailover> failover;
    bool dead = false;             ///< cell blacked out right now
    std::uint64_t dead_drops = 0;  ///< boundary ingress dropped while dead

    /// Order-exact stream fold: deliveries, egress posts and boundary
    /// arrivals, mixed the instant they happen (no buffering, so the steady
    /// state stays allocation-free).
    sim::Fnv1a64 digest;
    std::uint64_t queue_drops = 0;

    [[nodiscard]] int station_id(int k) const { return index * kIdStride + k; }
    [[nodiscard]] int gateway_id() const { return station_id(0); }
  };

  /// `tick_interval` is the mean spacing of a cell's traffic ticks;
  /// `bridges_fall_back` says whether a partitioned WiFi bridge reroutes
  /// over the PLC backbone (true) or goes down like any other crossing.
  /// The scope names label build() and run_until() in the profile.
  CellWorld(const CellRunConfig& run, sim::Time tick_interval,
            bool bridges_fall_back, const char* build_scope,
            const char* run_scope);

  /// Build the engine over `links` and every cell; the binding's
  /// constructor calls it once its topology exists.
  void start(int n_cells, const std::vector<grid::BoundaryLink>& links);

  // --- Binding hooks --------------------------------------------------------
  /// A new cell with its media, stations and handlers wired onto
  /// engine().cell_sim(c). The runtime then adds the boundary handler, the
  /// fault wiring and the first tick, in that order.
  virtual std::unique_ptr<Cell> make_cell(int c) = 0;
  /// One traffic tick of a live cell with at least two stations.
  virtual void offer(Cell& c) = 0;
  /// Hand a decoded boundary arrival to the live cell's media.
  virtual void deliver(Cell& c, std::uint32_t kind, net::Packet& p) = 0;
  /// Mix one cell's contribution to the world digest.
  virtual void fold(sim::Fnv1a64& f, const Cell& c) const = 0;
  /// Take an egress over crossing `ci` through a local hop first; true when
  /// the hop will post the crossing itself.
  virtual bool local_hop(Cell&, int /*ci*/, const net::Packet&) { return false; }

  // --- Runtime services for the bindings ------------------------------------
  [[nodiscard]] const std::vector<Crossing>& crossings(int c) const {
    return crossings_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Cell>>& cells() const {
    return cells_;
  }
  /// Forward `p` out of `c` towards `dst_cell`: dropped at a downed
  /// crossing, otherwise through local_hop() or straight to post_crossing().
  void egress(Cell& c, const net::Packet& p, int dst_cell);
  /// Post `p` over the crossing to `dst_cell` as a BoundaryEvent, folding
  /// the post into the cell's digest.
  void post_crossing(Cell& c, const net::Packet& p, int dst_cell);
  /// Fill the shared tail of a result; `cell_digests` receives every cell's
  /// digest stream value in cell order.
  void fill(CellResult& r, std::vector<std::uint64_t>& cell_digests) const;

 private:
  void build();
  /// Slice the plan into this cell's specs and wire its injector, effect
  /// hooks and gateway failover.
  void wire_faults(Cell& c);
  void schedule_tick(Cell& c);
  void tick(Cell& c);
  void arrive(Cell& c, const sim::BoundaryEvent& e);
  [[nodiscard]] int crossing_to(const Cell& c, int dst_cell) const;
  [[nodiscard]] std::uint64_t world_digest() const;

  CellRunConfig run_;
  sim::Time tick_interval_;
  bool bridges_fall_back_;
  const char* build_scope_;
  const char* run_scope_;
  std::vector<std::vector<Crossing>> crossings_;  ///< per cell, in link order
  std::unique_ptr<sim::ShardedSimulator> engine_;
  std::vector<std::unique_ptr<Cell>> cells_;  ///< destroyed before engine_
};

}  // namespace efd::testbed
