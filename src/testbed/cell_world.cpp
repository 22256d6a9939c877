#include "src/testbed/cell_world.hpp"

#include <algorithm>
#include <cassert>

#include "src/fault/injector.hpp"
#include "src/hybrid/gateway.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/channel.hpp"
#include "src/plc/network.hpp"
#include "src/wifi/network.hpp"

namespace efd::testbed {

CellWorld::Cell::Cell(int cell) : index(cell) {}
CellWorld::Cell::~Cell() = default;

CellWorld::CellWorld(const CellRunConfig& run, sim::Time tick_interval,
                     bool bridges_fall_back, const char* build_scope,
                     const char* run_scope)
    : run_(run),
      tick_interval_(tick_interval),
      bridges_fall_back_(bridges_fall_back),
      build_scope_(build_scope),
      run_scope_(run_scope) {}

CellWorld::~CellWorld() = default;

void CellWorld::start(int n_cells,
                      const std::vector<grid::BoundaryLink>& links) {
  sim::ShardedSimulator::Config ec;
  ec.n_cells = n_cells;
  ec.n_shards = run_.n_shards;
  crossings_.resize(static_cast<std::size_t>(n_cells));
  for (std::size_t li = 0; li < links.size(); ++li) {
    const grid::BoundaryLink& l = links[li];
    ec.links.push_back({l.board_a, l.board_b, l.lookahead});
    ec.links.push_back({l.board_b, l.board_a, l.lookahead});
    const int link = static_cast<int>(li);
    crossings_[static_cast<std::size_t>(l.board_a)].push_back(
        {l.board_b, l.kind, l.lookahead.ns(), link});
    crossings_[static_cast<std::size_t>(l.board_b)].push_back(
        {l.board_a, l.kind, l.lookahead.ns(), link});
  }
  ec.mailbox_capacity = run_.mailbox_capacity;
  ec.watchdog.budget_ns = run_.watchdog_budget_ns;
  engine_ = std::make_unique<sim::ShardedSimulator>(std::move(ec));
  build();
}

void CellWorld::build() {
  EFD_PROF_SCOPE(build_scope_);
  cells_.clear();
  cells_.reserve(crossings_.size());
  for (int c = 0; c < engine_->n_cells(); ++c) {
    std::unique_ptr<Cell> cell = make_cell(c);
    Cell* w = cell.get();
    engine_->set_cell_handler(
        c, [this, w](const sim::BoundaryEvent& e, sim::Simulator&) {
          arrive(*w, e);
        });
    if (!run_.faults.empty()) wire_faults(*w);
    schedule_tick(*w);
    cells_.push_back(std::move(cell));
  }
}

void CellWorld::arrive(Cell& c, const sim::BoundaryEvent& e) {
  // Fold the arrival stream before acting on it: (t, src, payload) in
  // delivery order is exactly what conservative sync must make
  // grouping-invariant.
  c.digest.mix(e.t_ns);
  c.digest.mix(e.src_cell);
  c.digest.mix(static_cast<std::uint64_t>(e.kind));
  c.digest.mix(e.a);
  c.digest.mix(e.b);
  c.digest.mix(e.c);
  if (c.dead) {
    // The arrival is folded (it crossed the boundary either way) but a
    // blacked-out cell has nothing powered to hand it to.
    ++c.dead_drops;
    return;
  }
  net::Packet p;
  p.flow_id = static_cast<int>(e.b >> 32);
  p.seq = static_cast<std::uint32_t>(e.b & 0xffffffffu);
  p.size_bytes = e.bytes;
  p.created = sim::Time{static_cast<std::int64_t>(e.c)};
  p.priority = 1;
  deliver(c, e.kind, p);
}

void CellWorld::wire_faults(Cell& c) {
  // The crossings table is built once and outlives every cell, so the
  // hooks below may hold a reference to this cell's row.
  const std::vector<Crossing>& xs = crossings(c.index);

  // Slice the world-wide plan into this cell's specs: cell-targeted kinds
  // stay on their cell; a link partition lands on BOTH endpoint cells (each
  // schedules the same apply/clear instants on its own cell clock, so both
  // sides observe the cut simultaneously in sim time).
  fault::FaultPlan local;
  for (const fault::FaultSpec& s : run_.faults.specs()) {
    const bool mine =
        s.kind == fault::FaultKind::kLinkPartition
            ? std::any_of(xs.begin(), xs.end(),
                          [&s](const Crossing& x) { return x.link == s.target; })
            : s.target == c.index;
    if (mine) local.add(s);
  }

  std::vector<bool> has_fallback;
  for (const Crossing& x : xs) {
    // A severed WiFi bridge may fall back to the shared powerline backbone;
    // a severed backbone crossing has no second medium and goes down.
    has_fallback.push_back(bridges_fall_back_ &&
                           x.kind == grid::BoundaryKind::kWifiBridge);
  }
  c.failover = std::make_unique<hybrid::GatewayFailover>(std::move(has_fallback));

  if (local.empty()) return;

  Cell* w = &c;
  c.injector =
      std::make_unique<fault::FaultInjector>(engine_->cell_sim(c.index));
  c.failover->set_listener(
      [w, &xs](int crossing, hybrid::GatewayFailover::Path path, sim::Time) {
        // Recovery-side trace: reroutes/downs record as trips, primary
        // restoration as recovery; severity 1 = fallback carried traffic.
        const int link = xs[static_cast<std::size_t>(crossing)].link;
        if (path == hybrid::GatewayFailover::Path::kPrimary) {
          w->injector->record(fault::FaultPhase::kRecover,
                              fault::FaultKind::kLinkPartition, link);
        } else {
          w->injector->record(
              fault::FaultPhase::kTrip, fault::FaultKind::kLinkPartition, link,
              path == hybrid::GatewayFailover::Path::kFallback ? 1.0 : 0.0);
        }
      });

  // The PLC side of a cell takes blackouts, brownouts and impulse surges as
  // a forced PB error rate; its radio, if any, takes jamming.
  const auto plc_error = [w](double pb_error) {
    w->plc->medium().set_fault_pb_error(pb_error);
  };
  const auto jam = [w](double db) {
    if (w->wifi) w->wifi->medium().set_jamming_db(db);
  };
  c.injector->set_hooks(
      fault::FaultKind::kBoardBlackout,
      {[w, plc_error, jam](const fault::FaultSpec&, sim::Time) {
         w->dead = true;
         plc_error(1.0);
         jam(200.0);
       },
       [w, plc_error, jam](const fault::FaultSpec&, sim::Time) {
         w->dead = false;
         plc_error(0.0);
         jam(0.0);
       }});
  for (const fault::FaultKind kind :
       {fault::FaultKind::kBoardBrownout, fault::FaultKind::kPlcBlackout}) {
    c.injector->set_hooks(
        kind, {[plc_error](const fault::FaultSpec& s, sim::Time) {
                 plc_error(s.severity);
               },
               [plc_error](const fault::FaultSpec&, sim::Time) {
                 plc_error(0.0);
               }});
  }
  c.injector->set_hooks(
      fault::FaultKind::kWifiJam,
      {[jam](const fault::FaultSpec& s, sim::Time) { jam(s.severity); },
       [jam](const fault::FaultSpec&, sim::Time) { jam(0.0); }});
  c.injector->set_hooks(
      fault::FaultKind::kLinkPartition,
      {[w, &xs](const fault::FaultSpec& s, sim::Time t) {
         for (std::size_t ci = 0; ci < xs.size(); ++ci) {
           if (xs[ci].link == s.target) {
             w->failover->on_partition(static_cast<int>(ci), t);
           }
         }
       },
       [w, &xs](const fault::FaultSpec& s, sim::Time t) {
         for (std::size_t ci = 0; ci < xs.size(); ++ci) {
           if (xs[ci].link == s.target) {
             w->failover->on_restore(static_cast<int>(ci), t);
           }
         }
       }});

  c.injector->install(local);
}

void CellWorld::schedule_tick(Cell& c) {
  const auto jitter = static_cast<std::int64_t>(
      static_cast<double>(tick_interval_.ns()) * c.rng.uniform(0.6, 1.4));
  Cell* w = &c;
  engine_->cell_sim(c.index).after_inline(sim::Time{jitter},
                                          [this, w] { tick(*w); });
}

void CellWorld::tick(Cell& c) {
  schedule_tick(c);
  // A blacked-out cell offers nothing: its stations are unpowered. The tick
  // chain keeps running so traffic resumes the instant power returns.
  if (c.n_stations < 2 || c.dead) return;
  offer(c);
}

int CellWorld::crossing_to(const Cell& c, int dst_cell) const {
  const std::vector<Crossing>& xs = crossings(c.index);
  const auto it =
      std::find_if(xs.begin(), xs.end(),
                   [dst_cell](const Crossing& x) { return x.neighbor == dst_cell; });
  assert(it != xs.end() && "remote flow targets a non-neighbor");
  return static_cast<int>(it - xs.begin());
}

void CellWorld::egress(Cell& c, const net::Packet& p, int dst_cell) {
  const int ci = crossing_to(c, dst_cell);
  if (c.failover && !c.failover->usable(ci)) {
    // Partitioned crossing with no fallback medium: deterministic drop.
    c.failover->record_drop();
    return;
  }
  c.plc->record_boundary_egress();
  if (!local_hop(c, ci, p)) post_crossing(c, p, dst_cell);
}

void CellWorld::post_crossing(Cell& c, const net::Packet& p, int dst_cell) {
  const int ci = crossing_to(c, dst_cell);
  const Crossing& x = crossings(c.index)[static_cast<std::size_t>(ci)];
  // A bridge crossing rerouted by a partition travels the backbone: the
  // destination hands it straight to its mains instead of its radio.
  const bool bridge = x.kind == grid::BoundaryKind::kWifiBridge &&
                      !(c.failover && c.failover->rerouted(ci));
  sim::BoundaryEvent e;
  e.t_ns = engine_->cell_sim(c.index).now().ns() + x.lookahead_ns;
  e.src_cell = c.index;
  e.dst_cell = dst_cell;
  e.kind = bridge ? kKindBridge : kKindBackbone;
  e.bytes = static_cast<std::uint32_t>(p.size_bytes);
  e.a = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.src)) << 32) |
        static_cast<std::uint32_t>(p.dst);
  e.b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.flow_id))
         << 32) |
        p.seq;
  e.c = static_cast<std::uint64_t>(p.created.ns());
  // Egress leaves the cell's digest stream too: the post time is a pure
  // function of cell-local evolution, so it is grouping-invariant.
  c.digest.mix(e.t_ns);
  c.digest.mix(e.dst_cell);
  c.digest.mix(e.b);
  engine_->post(e);
}

void CellWorld::run() { run_until(run_.duration); }

void CellWorld::run_until(sim::Time end) {
  EFD_PROF_SCOPE(run_scope_);
  engine_->run_until(end);
}

std::uint64_t CellWorld::world_digest() const {
  sim::Fnv1a64 f;
  for (const auto& c : cells_) fold(f, *c);
  return f.h;
}

CellCheckpoint CellWorld::checkpoint() const {
  CellCheckpoint cp;
  cp.engine = engine_->checkpoint();
  cp.t = sim::Time{cp.engine.t_ns - 1};  // engine horizons are exclusive
  cp.world_digest = world_digest();
  return cp;
}

bool CellWorld::restore(const CellCheckpoint& cp) {
  reset_and_rebuild();
  engine_->run_until(cp.t);
  return engine_->matches(cp.engine) && world_digest() == cp.world_digest;
}

void CellWorld::reset_and_rebuild() {
  engine_->reset();
  build();
}

void CellWorld::fill(CellResult& r,
                     std::vector<std::uint64_t>& cell_digests) const {
  r.digest = world_digest();
  r.n_shards = engine_->n_shards();
  r.events = engine_->events_dispatched();
  r.shards = engine_->shard_stats();

  // Fault-domain accounting rides outside the digest fold, so the
  // fault-free digest is bit-for-bit independent of fault wiring.
  cell_digests.reserve(cells_.size());
  for (const auto& c : cells_) {
    cell_digests.push_back(c->digest.h);
    r.dead_drops += c->dead_drops;
    if (c->injector) {
      r.fault_events += c->injector->trace().size();
      r.fault_trace += c->injector->trace_lines();
    }
    if (c->failover) {
      r.failovers += c->failover->failovers();
      r.failbacks += c->failover->failbacks();
      r.partition_drops += c->failover->drops();
    }
  }
  r.mailbox_peak = engine_->mailbox_peak_occupancy();

  std::int64_t busy_max = 0;
  std::int64_t busy_sum = 0;
  for (const auto& s : r.shards) {
    r.boundary_posted += s.boundary_posted;
    r.boundary_delivered += s.boundary_delivered;
    r.backpressure_waits += s.backpressure_waits;
    busy_max = std::max(busy_max, s.busy_ns);
    busy_sum += s.busy_ns;
  }
  if (!r.shards.empty() && busy_sum > 0) {
    const double mean = static_cast<double>(busy_sum) /
                        static_cast<double>(r.shards.size());
    r.load_balance = static_cast<double>(busy_max) / mean;
  }
}

}  // namespace efd::testbed
