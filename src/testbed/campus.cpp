#include "src/testbed/campus.hpp"

#include <algorithm>

#include "src/hybrid/gateway.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/network.hpp"
#include "src/wifi/network.hpp"

namespace efd::testbed {

namespace {

/// A bridge endpoint's WiFi radios: the roof radio at station +48 and the
/// building AP at +49 of the board's id block.
constexpr int kWifiRadioOff = 48;
constexpr int kWifiApOff = 49;

}  // namespace

/// Everything one distribution board owns beyond the runtime's Cell.
struct CampusWorld::BoardWorld : Cell {
  using Cell::Cell;

  std::uint32_t seq = 0;
  std::uint64_t offered_local = 0;
  std::uint64_t offered_remote = 0;
  std::uint64_t delivered = 0;

  [[nodiscard]] int radio_id() const { return station_id(kWifiRadioOff); }
  [[nodiscard]] int ap_id() const { return station_id(kWifiApOff); }
};

CampusWorld::CampusWorld(const CampusRunConfig& cfg)
    : CellWorld(cfg, cfg.traffic_interval, /*bridges_fall_back=*/true,
                "campus.build", "campus.run"),
      cfg_(cfg),
      topo_(grid::CampusTopology::generate(cfg.campus)) {
  start(topo_.n_boards(), topo_.links());
}

CampusWorld::~CampusWorld() = default;

std::unique_ptr<CellWorld::Cell> CampusWorld::make_cell(int b) {
  auto bw = std::make_unique<BoardWorld>(b);
  bw->n_stations =
      std::min(cfg_.campus.stations_per_board, topo_.outlets_on_board(b));
  bw->rng = sim::Rng{cfg_.campus.seed}.fork(
      0x7AFF1C00 + static_cast<std::uint64_t>(b));
  topo_.build_board_grid(b, bw->grid);

  sim::Simulator& sim = engine().cell_sim(b);
  bw->channel =
      std::make_unique<plc::PlcChannel>(bw->grid, plc::PhyParams::hpav());
  bw->plc = std::make_unique<plc::PlcNetwork>(
      sim, *bw->channel,
      sim::Rng{cfg_.campus.seed}.fork(0x9E7B00 + static_cast<std::uint64_t>(b)));

  BoardWorld* w = bw.get();
  for (int k = 0; k < bw->n_stations; ++k) {
    const int id = bw->station_id(k);
    const int outlet = topo_.station_outlet(b, k);
    bw->channel->attach_station(id, outlet);
    bw->plc->add_station(id, outlet);
    bw->plc->station(id).mac().set_rx_handler(
        [this, w, id](const net::Packet& p, sim::Time when) {
          const int dst_board = (p.flow_id - kRemoteFlowBase) / kIdStride;
          if (p.flow_id >= kRemoteFlowBase && dst_board != w->index) {
            // Transit traffic at the gateway: hand it off-board.
            egress(*w, p, dst_board);
            return;
          }
          ++w->delivered;
          w->digest.mix(id);
          w->digest.mix(p.flow_id);
          w->digest.mix(static_cast<std::uint64_t>(p.seq));
          w->digest.mix(when.ns());
        });
  }
  bw->plc->set_cco(bw->gateway_id());
  bw->plc->set_boundary_gateway(bw->gateway_id());

  const std::vector<Crossing>& xs = crossings(b);
  if (std::any_of(xs.begin(), xs.end(), [](const Crossing& x) {
        return x.kind == grid::BoundaryKind::kWifiBridge;
      })) {
    bw->wifi = std::make_unique<wifi::WifiNetwork>(
        sim, sim::Rng{cfg_.campus.seed}.fork(
                 0x31F1000 + static_cast<std::uint64_t>(b)));
    bw->wifi->add_station(bw->radio_id(), 0.0, 0.0);
    bw->wifi->add_station(bw->ap_id(), 18.0, 4.0);
    bw->wifi->set_boundary_gateway(bw->radio_id());
    // Roof radio: every frame it receives is egress-bound for a
    // neighboring building.
    bw->wifi->station(bw->radio_id())
        .set_rx_handler([this, w](const net::Packet& p, sim::Time) {
          post_crossing(*w, p, (p.flow_id - kRemoteFlowBase) / kIdStride);
        });
    // Building AP: every frame it receives came over the bridge and
    // continues onto the board's mains.
    bw->wifi->station(bw->ap_id())
        .set_rx_handler([w](const net::Packet& p, sim::Time) {
          net::Packet q = p;
          q.src = w->gateway_id();
          q.dst = p.flow_id - kRemoteFlowBase;
          if (!w->plc->inject_boundary(q)) ++w->queue_drops;
        });
  }
  return bw;
}

void CampusWorld::deliver(Cell& c, std::uint32_t kind, net::Packet& p) {
  auto& bw = static_cast<BoardWorld&>(c);
  if (kind == kKindBridge && bw.wifi) {
    p.src = bw.radio_id();
    p.dst = bw.ap_id();
    if (!bw.wifi->inject_boundary(p)) ++bw.queue_drops;
  } else {
    p.src = bw.gateway_id();
    p.dst = p.flow_id - kRemoteFlowBase;
    if (!bw.plc->inject_boundary(p)) ++bw.queue_drops;
  }
}

void CampusWorld::offer(Cell& c) {
  auto& bw = static_cast<BoardWorld&>(c);
  const int src_k =
      static_cast<int>(bw.rng.uniform_int(0, bw.n_stations - 1));

  net::Packet p;
  p.seq = bw.seq++;
  p.size_bytes = static_cast<std::size_t>(bw.rng.uniform_int(200, 1500));
  p.created = engine().cell_sim(bw.index).now();
  p.priority = 1;
  p.src = bw.station_id(src_k);

  const std::vector<Crossing>& xs = crossings(bw.index);
  if (!xs.empty() && bw.rng.bernoulli(cfg_.p_remote)) {
    const Crossing& x = xs[static_cast<std::size_t>(
        bw.rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))];
    const int dst_stations = std::min(cfg_.campus.stations_per_board,
                                      topo_.outlets_on_board(x.neighbor));
    if (dst_stations >= 2) {
      // Never address the destination gateway itself: the final PLC hop
      // would be a station transmitting to itself.
      const int dst_k =
          1 + static_cast<int>(bw.rng.uniform_int(0, dst_stations - 2));
      p.flow_id = kRemoteFlowBase + x.neighbor * kIdStride + dst_k;
      p.dst = bw.gateway_id();
      ++bw.offered_remote;
      if (src_k == 0) {
        // The gateway sourcing off-board traffic skips its own medium.
        egress(bw, p, x.neighbor);
      } else if (!bw.plc->station(p.src).mac().enqueue(p)) {
        ++bw.queue_drops;
      }
      return;
    }
  }

  int dst_k = static_cast<int>(bw.rng.uniform_int(0, bw.n_stations - 2));
  if (dst_k >= src_k) ++dst_k;
  p.flow_id = p.src * kIdStride + dst_k;
  p.dst = bw.station_id(dst_k);
  ++bw.offered_local;
  if (!bw.plc->station(p.src).mac().enqueue(p)) ++bw.queue_drops;
}

bool CampusWorld::local_hop(Cell& c, int ci, const net::Packet& p) {
  auto& bw = static_cast<BoardWorld&>(c);
  if (crossings(bw.index)[static_cast<std::size_t>(ci)].kind !=
          grid::BoundaryKind::kWifiBridge ||
      !bw.wifi || (bw.failover && bw.failover->rerouted(ci))) {
    return false;
  }
  net::Packet q = p;
  q.src = bw.ap_id();
  q.dst = bw.radio_id();
  bw.wifi->record_boundary_egress();
  if (!bw.wifi->station(q.src).enqueue(q)) ++bw.queue_drops;
  return true;
}

void CampusWorld::fold(sim::Fnv1a64& f, const Cell& c) const {
  const auto& bw = static_cast<const BoardWorld&>(c);
  f.mix(bw.index);
  f.mix(bw.digest.h);
  f.mix(static_cast<std::uint64_t>(bw.seq));
  f.mix(bw.offered_local);
  f.mix(bw.offered_remote);
  f.mix(bw.delivered);
  f.mix(bw.queue_drops);
  f.mix(bw.plc->boundary_ingress());
  f.mix(bw.plc->boundary_egress());
  if (bw.wifi) {
    f.mix(bw.wifi->boundary_ingress());
    f.mix(bw.wifi->boundary_egress());
  }
}

CampusResult CampusWorld::result() const {
  CampusResult r;
  r.n_boards = topo_.n_boards();
  fill(r, r.board_digests);
  for (const auto& c : cells()) {
    const auto& bw = static_cast<const BoardWorld&>(*c);
    r.packets_local += bw.offered_local;
    r.packets_remote += bw.offered_remote;
    r.delivered += bw.delivered;
  }
  return r;
}

CampusResult run_campus(const CampusRunConfig& cfg) {
  CampusWorld world(cfg);
  world.run();
  return world.result();
}

}  // namespace efd::testbed
