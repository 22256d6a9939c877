// The four benchmark workloads. Each is a closed batch job: build the
// world from seed-derived inputs (set-up), run one simulation to
// completion (the timed span), and check invariants of its outputs. See
// perfbench/NOTES.md for why each exists and which layers it loads.

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench/bench_util.hpp"
#include "harness.hpp"
#include "src/core/sampler.hpp"
#include "src/fault/fault.hpp"
#include "src/grid/campus.hpp"
#include "src/grid/nan.hpp"
#include "src/grid/schedule.hpp"
#include "src/hybrid/device.hpp"
#include "src/hybrid/scheduler.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/stats.hpp"
#include "src/testbed/campus.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/nan.hpp"
#include "src/testbed/testbed.hpp"

namespace perfbench {
namespace {

using namespace efd;

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Testbed construction plus the idle run to `warm_until`, timed as the
/// testbed.setup.build and testbed.setup.warm layers.
std::unique_ptr<testbed::Testbed> build_testbed(sim::Simulator& sim,
                                                std::uint64_t seed,
                                                sim::Time warm_until,
                                                JobResult& r, SpanRecorder& spans) {
  testbed::Testbed::Config cfg;
  cfg.seed = seed;
  cfg.with_hpav500 = false;
  std::unique_ptr<testbed::Testbed> tb;
  {
    const SpanRecorder::Scope s(spans, "setup.build");
    const auto t0 = Clock::now();
    tb = std::make_unique<testbed::Testbed>(sim, cfg);
    r.times["testbed.setup.build_s"] = seconds_since(t0);
  }
  {
    const SpanRecorder::Scope s(spans, "setup.warm");
    const auto t0 = Clock::now();
    sim.run_until(warm_until);
    r.times["testbed.setup.warm_s"] = seconds_since(t0);
  }
  return tb;
}

// --- link_trace -------------------------------------------------------------

/// The Fig. 14 bad link traced through LinkTraceSampler at 5 s steps over
/// one weekday and one weekend day (Friday and Saturday), so every hour of
/// the load schedule appears on both kinds of day.
Job prepare_link_trace(std::uint64_t seed) {
  return [seed](SpanRecorder& spans) {
    JobResult r;
    const auto t_setup = Clock::now();
    sim::Simulator sim;
    auto tb = build_testbed(sim, derive_seed(seed, 1), sim::hours(0.1), r, spans);

    int ba = -1;
    int bb = -1;
    {
      // A weak-but-alive link, picked as the Fig. 14 bench picks it. Every
      // link is warmed, the dead ones too, so set-up work and memory are
      // the same for every seed; only alive links can be picked.
      const SpanRecorder::Scope s(spans, "setup.pick_link");
      const auto t0 = Clock::now();
      double worst = 1e9;
      for (const auto& [a, b] : tb->plc_links()) {
        const bool alive = tb->plc_channel().mean_snr_db(a, b, 0, sim.now()) >= 7.0;
        const double ble = bench::warmed_ble(*tb, a, b);
        if (alive && ble > 15.0 && ble < worst) {
          worst = ble;
          ba = a;
          bb = b;
        }
      }
      r.times["testbed.setup.pick_link_s"] = seconds_since(t0);
    }
    if (ba < 0) throw std::runtime_error("link_trace: no link with BLE > 15 Mb/s");
    auto& est = tb->plc_network_of(bb).estimator(bb, ba);
    core::LinkTraceSampler::Config scfg;
    scfg.step = sim::seconds(5);
    scfg.pbs_per_step = 130000;
    core::LinkTraceSampler sampler(tb->plc_channel(), est, ba, bb,
                                   sim::Rng{derive_seed(seed, 2)}, scfg);
    r.setup_s = seconds_since(t_setup);

    const sim::Time start = sim::days(4);  // Friday 00:00
    const sim::Time end = sim::days(6);    // Sunday 00:00
    sim::RunningStats weekday[24];
    sim::RunningStats weekend[24];
    Digest digest;
    std::vector<double>& retune_us = r.samples["plc.est.retune_step_us"];
    std::vector<double>& quiet_us = r.samples["plc.est.quiet_step_us"];
    double retune_s = 0.0;
    // A job runs for seconds, so the host probe also samples every two
    // simulated hours; its time is taken out of the timed span.
    constexpr int kStepsPerProbe = 2 * 3600 / 5;
    double probe_wall_s = 0.0;
    double probe_cpu_s = 0.0;
    int step = 0;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    {
      const SpanRecorder::Scope run(spans, "run.trace");
      for (sim::Time day = start; day < end; day = day + sim::days(1)) {
        const SpanRecorder::Scope d(spans, "run.trace.day");
        const sim::Time day_end = day + sim::days(1);
        for (sim::Time t = day + scfg.step; t <= day_end; t = t + scfg.step) {
          if (++step % kStepsPerProbe == 0) {
            const auto p0 = Clock::now();
            const double pc = cpu_seconds();
            r.probes.push_back(probe_seconds(1));
            probe_wall_s += seconds_since(p0);
            probe_cpu_s += cpu_seconds() - pc;
          }
          const std::uint64_t updates = est.update_count();
          const auto s0 = Clock::now();
          const double ble = sampler.step(t);
          const double us = us_since(s0);
          if (est.update_count() != updates) {
            retune_us.push_back(us);
            retune_s += us * 1e-6;
          } else {
            quiet_us.push_back(us);
          }
          // The sample at midnight closes the previous day's last hour.
          const sim::Time at = t - sim::Time{1};
          const int hour = static_cast<int>(grid::Calendar::hour_of_day(at));
          (grid::Calendar::is_weekend(at) ? weekend[hour] : weekday[hour]).add(ble);
          digest.mix_double(ble);
        }
      }
    }
    r.timed_s = seconds_since(t0) - probe_wall_s;
    r.cpu_s = cpu_seconds() - c0 - probe_cpu_s;
    r.sim_s = (end - start).seconds();
    r.times["plc.est.retune_s"] = retune_s;
    r.digest = digest.h;
    // The sampler's traffic: PBs carried vs PBs received intact.
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    r.counts["net.offered"] = snap.counter("plc.est.pbs_rx");
    r.counts["net.delivered"] =
        snap.counter("plc.est.pbs_rx") - snap.counter("plc.est.pb_errors");

    sim::RunningStats wd_span;
    sim::RunningStats we_span;
    for (int h = 0; h < 24; ++h) {
      wd_span.add(weekday[h].mean());
      we_span.add(weekend[h].mean());
    }
    r.check("link_trace.weekday_swing_gt_weekend_swing",
            wd_span.max() - wd_span.min() > we_span.max() - we_span.min());
    return r;
  };
}

// --- hybrid_saturated -------------------------------------------------------

struct PhaseResult {
  double mean_mbps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
};

/// One saturated 400 Mb/s UDP phase from `tx` to `rx`, advanced in fixed
/// simulated slices of Simulator::run_until (each slice timed), then
/// flushed the way testbed::measure_*_throughput flushes.
PhaseResult saturate(sim::Simulator& sim, net::Interface& tx, net::Interface& rx,
                     int src, int dst, sim::Time duration, Digest& digest,
                     JobResult& r) {
  constexpr int kSlicesPerSecond = 20;
  net::ThroughputMeter meter;
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    meter.on_packet(p, t);
    digest.mix(p.seq);
    digest.mix(static_cast<std::uint64_t>(t.ns()));
  });
  net::UdpSource::Config cfg;
  cfg.src = src;
  cfg.dst = dst;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, tx, cfg);
  const sim::Time start = sim.now();
  source.run(start, start + duration);
  std::vector<double>& slice_ms = r.samples["sim.slice_ms"];
  double& engine_s = r.times["sim.engine_s"];
  const auto n_slices =
      static_cast<int>(duration.seconds() * kSlicesPerSecond + 0.5);
  for (int k = 1; k <= n_slices; ++k) {
    const auto t0 = Clock::now();
    sim.run_until(start + sim::seconds(static_cast<double>(k) / kSlicesPerSecond));
    const double wall_s = seconds_since(t0);
    slice_ms.push_back(wall_s * 1e3);
    engine_s += wall_s;
  }
  source.stop();
  meter.finish(sim.now());
  rx.set_rx_handler([](const net::Packet&, sim::Time) {});
  tx.clear_queue();
  const auto t0 = Clock::now();
  sim.run_until(sim.now() + sim::milliseconds(100));
  engine_s += seconds_since(t0);
  return {meter.stats().mean(), source.offered_packets(), meter.total_packets()};
}

/// The Fig. 20 pair under 400 Mb/s of offered UDP: PLC alone, WiFi alone,
/// then HybridDevice + CapacityScheduler fed the two measured capacities.
Job prepare_hybrid_saturated(std::uint64_t seed) {
  return [seed](SpanRecorder& spans) {
    JobResult r;
    const auto t_setup = Clock::now();
    sim::Simulator sim;
    auto tb = build_testbed(sim, derive_seed(seed, 1), testbed::weekday_afternoon(),
                            r, spans);
    int src = -1;
    int dst = -1;
    {
      // A pair where both mediums work but differ (the paper's link 0-4).
      const SpanRecorder::Scope s(spans, "setup.pick_link");
      const auto t0 = Clock::now();
      for (const auto& [a, b] : tb->plc_links()) {
        if (tb->plc_channel().mean_snr_db(a, b, 0, sim.now()) < 18.0) continue;
        const double wifi_snr = tb->wifi().channel().mean_snr_db(a, b);
        if (wifi_snr > 12.0 && wifi_snr < 25.0) {
          src = a;
          dst = b;
          break;
        }
      }
      r.times["testbed.setup.pick_link_s"] = seconds_since(t0);
    }
    if (src < 0) throw std::runtime_error("hybrid_saturated: no PLC+WiFi pair");
    {
      const SpanRecorder::Scope s(spans, "setup.warm_link");
      const auto t0 = Clock::now();
      bench::warm_link(*tb, src, dst);
      r.times["testbed.setup.warm_s"] += seconds_since(t0);
    }
    r.setup_s = seconds_since(t_setup);

    const sim::Time phase = sim::seconds(20);
    Digest digest;
    const std::uint64_t events0 = sim.events_dispatched();
    const sim::Time sim0 = sim.now();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    PhaseResult plc;
    PhaseResult wifi;
    PhaseResult hyb;
    {
      const SpanRecorder::Scope s(spans, "run.plc");
      plc = saturate(sim, tb->plc_station(src).mac(), tb->plc_station(dst).mac(),
                     src, dst, phase, digest, r);
    }
    {
      const SpanRecorder::Scope s(spans, "run.wifi");
      wifi = saturate(sim, tb->wifi_station(src), tb->wifi_station(dst), src, dst,
                      phase, digest, r);
    }
    {
      const SpanRecorder::Scope s(spans, "run.hybrid");
      hybrid::HybridDevice tx(
          sim, {&tb->plc_station(src).mac(), &tb->wifi_station(src)},
          std::make_unique<hybrid::CapacityScheduler>(sim::Rng{derive_seed(seed, 3)}));
      tx.set_capacities({plc.mean_mbps, wifi.mean_mbps});
      hybrid::HybridDevice rx(
          sim, {&tb->plc_station(dst).mac(), &tb->wifi_station(dst)},
          std::make_unique<hybrid::RoundRobinScheduler>(2));
      rx.start_receiving();
      hyb = saturate(sim, tx, rx, src, dst, phase, digest, r);
    }
    r.timed_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.sim_s = (sim.now() - sim0).seconds();
    r.digest = digest.h;
    r.counts["sim.events"] = sim.events_dispatched() - events0;
    r.counts["net.offered"] = plc.offered + wifi.offered + hyb.offered;
    r.counts["net.delivered"] = plc.delivered + wifi.delivered + hyb.delivered;
    r.check("hybrid_saturated.hybrid_ge_0.85_sum",
            hyb.mean_mbps >= 0.85 * (plc.mean_mbps + wifi.mean_mbps));
    return r;
  };
}

// --- sharded workloads ------------------------------------------------------

struct ShardTotals {
  double busy_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t boundary = 0;
  double max_busy_s = 0.0;
};

ShardTotals shard_delta(const std::vector<sim::ShardedSimulator::ShardStats>& a,
                        const std::vector<sim::ShardedSimulator::ShardStats>& b) {
  ShardTotals t;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double busy = static_cast<double>(b[i].busy_ns - a[i].busy_ns) * 1e-9;
    t.busy_s += busy;
    t.wait_s += static_cast<double>(b[i].wait_ns - a[i].wait_ns) * 1e-9;
    t.windows += b[i].windows - a[i].windows;
    t.boundary += b[i].boundary_delivered - a[i].boundary_delivered;
    t.max_busy_s = std::max(t.max_busy_s, busy);
  }
  return t;
}

/// Advance a sharded world through `duration` in `n_segments` fixed
/// simulated segments, timing each run_until and splitting its wall time
/// into the longest shard's busy+wait and the remainder (thread spawn and
/// watchdog join). `between` runs after every segment.
template <class World, class Between>
void run_segments(World& world, sim::Time duration, int n_segments, JobResult& r,
                  SpanRecorder& spans, Between between) {
  sim::ShardedSimulator& engine = world.engine();
  const auto first = engine.shard_stats();
  std::vector<double>& seg_ms = r.samples["sim.slice_ms"];
  std::vector<double>& overhead_ms = r.samples["sim.shard.run_until_overhead_ms"];
  for (int k = 1; k <= n_segments; ++k) {
    const SpanRecorder::Scope s(spans, "run.segment");
    const auto before = engine.shard_stats();
    const auto t0 = Clock::now();
    world.run_until(sim::Time{duration.ns() * k / n_segments});
    const double wall_s = seconds_since(t0);
    const auto& after = engine.shard_stats();
    double longest = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      longest = std::max(
          longest, static_cast<double>((after[i].busy_ns - before[i].busy_ns) +
                                       (after[i].wait_ns - before[i].wait_ns)) *
                       1e-9);
    }
    seg_ms.push_back(wall_s * 1e3);
    overhead_ms.push_back((wall_s - longest) * 1e3);
    between();
  }
  const ShardTotals t = shard_delta(first, engine.shard_stats());
  const double mean_busy = t.busy_s / static_cast<double>(engine.n_shards());
  r.times["sim.engine_s"] = t.busy_s;
  r.times["sim.shard.busy_s"] = t.busy_s;
  r.times["sim.shard.wait_s"] = t.wait_s;
  r.times["sim.shard.imbalance"] = mean_busy > 0.0 ? t.max_busy_s / mean_busy : 1.0;
  r.counts["sim.shard.windows"] = t.windows;
  r.counts["sim.shard.boundary_delivered"] = t.boundary;
}

/// A 4000-outlet campus at 4 shards under a seeded campus storm (board
/// blackouts/brownouts and link partitions), run in fixed simulated
/// segments with a checkpoint between them.
Job prepare_campus_storm(std::uint64_t seed) {
  return [seed](SpanRecorder& spans) {
    JobResult r;
    const auto t_setup = Clock::now();
    testbed::CampusRunConfig cfg;
    cfg.campus.n_outlets = 4000;
    cfg.campus.outlets_per_board = 20;
    cfg.campus.stations_per_board = 4;
    cfg.campus.seed = derive_seed(seed, 1);
    cfg.n_shards = 4;
    cfg.duration = sim::milliseconds(200);
    {
      const SpanRecorder::Scope s(spans, "setup.topology");
      const auto t0 = Clock::now();
      const auto topo = grid::CampusTopology::generate(cfg.campus);
      r.times["grid.build_s"] = seconds_since(t0);
      fault::FaultPlan::CampusStormConfig sc;
      sc.start = sim::milliseconds(20);
      sc.horizon = sim::milliseconds(150);
      sc.n_blackouts = 4;
      sc.n_brownouts = 4;
      sc.n_partitions = 4;
      sc.n_boards = topo.n_boards();
      sc.n_links = static_cast<int>(topo.links().size());
      cfg.faults =
          fault::FaultPlan::random_campus_storm(sim::Rng{derive_seed(seed, 2)}, sc);
      // Partition a few WiFi bridges too, so gateway failover always works.
      std::vector<int> bridges;
      for (std::size_t i = 0; i < topo.links().size(); ++i) {
        if (topo.links()[i].kind == grid::BoundaryKind::kWifiBridge) {
          bridges.push_back(static_cast<int>(i));
        }
      }
      sim::Rng rng{derive_seed(seed, 3)};
      for (int k = 0; k < 4 && !bridges.empty(); ++k) {
        const auto pick =
            rng.uniform_int(0, static_cast<std::int64_t>(bridges.size()) - 1);
        cfg.faults.link_partition(sim::milliseconds(rng.uniform(20.0, 150.0)),
                                  sim::milliseconds(rng.uniform(10.0, 60.0)),
                                  bridges[static_cast<std::size_t>(pick)]);
      }
    }
    std::unique_ptr<testbed::CampusWorld> world;
    {
      const SpanRecorder::Scope s(spans, "setup.build");
      world = std::make_unique<testbed::CampusWorld>(cfg);
    }
    r.setup_s = seconds_since(t_setup);

    Digest digest;
    std::vector<double>& ckpt_ms = r.samples["sim.checkpoint_ms"];
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    run_segments(*world, cfg.duration, 8, r, spans, [&] {
      const SpanRecorder::Scope s(spans, "run.checkpoint");
      const auto c = Clock::now();
      const testbed::CampusCheckpoint cp = world->checkpoint();
      ckpt_ms.push_back(seconds_since(c) * 1e3);
      digest.mix(cp.world_digest);
    });
    r.timed_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.sim_s = cfg.duration.seconds();

    const testbed::CampusResult res = world->result();
    digest.mix(res.digest);
    r.digest = digest.h;
    r.counts["sim.events"] = res.events;
    r.counts["net.offered"] = res.packets_local + res.packets_remote;
    r.counts["net.delivered"] = res.delivered;
    r.counts["fault.events"] = res.fault_events;
    r.counts["hybrid.failover.redirects"] = res.failovers;
    r.check("campus_storm.fault_events_gt_0", res.fault_events > 0);
    return r;
  };
}

testbed::NanRunConfig nan_config(std::uint64_t seed) {
  testbed::NanRunConfig cfg;
  cfg.nan.n_meters = 600;
  cfg.nan.meters_per_transformer = 10;
  cfg.nan.transformers_per_feeder = 3;
  cfg.nan.stations_per_transformer = 6;
  cfg.nan.seed = derive_seed(seed, 1);
  cfg.n_shards = 1;
  cfg.mode = testbed::DiversityMode::kDiversity;
  cfg.duration = sim::milliseconds(200);
  cfg.report_interval = sim::milliseconds(2);
  cfg.p_remote = 0.25;
  fault::FaultPlan::StormConfig sc;
  sc.start = sim::milliseconds(20);
  sc.horizon = sim::milliseconds(150);
  sc.n_faults = 12;
  sc.min_duration = sim::milliseconds(10);
  sc.max_duration = sim::milliseconds(50);
  sc.kinds = {fault::FaultKind::kPlcBlackout, fault::FaultKind::kWifiJam,
              fault::FaultKind::kBoardBrownout};
  sc.n_targets = (cfg.nan.n_meters + cfg.nan.meters_per_transformer - 1) /
                 cfg.nan.meters_per_transformer;
  cfg.faults = fault::FaultPlan::random_storm(sim::Rng{derive_seed(seed, 2)}, sc);
  return cfg;
}

std::uint64_t nan_delivered(const testbed::NanResult& r) {
  return r.delivered + r.delivered_remote;
}

/// 600 meters in kDiversity mode with relaying under a seeded fault storm,
/// at 1 shard, run in fixed simulated segments with an engine checkpoint
/// between them. The single-medium baselines the diversity check compares
/// against are run once per process, outside the jobs.
Job prepare_nan_diversity(std::uint64_t seed) {
  std::uint64_t best_single = 0;
  for (const auto mode : {testbed::DiversityMode::kPlcOnly,
                          testbed::DiversityMode::kWifiOnly}) {
    testbed::NanRunConfig cfg = nan_config(seed);
    cfg.mode = mode;
    best_single = std::max(best_single, nan_delivered(testbed::run_nan(cfg)));
  }
  return [seed, best_single](SpanRecorder& spans) {
    JobResult r;
    const auto t_setup = Clock::now();
    const testbed::NanRunConfig cfg = nan_config(seed);
    {
      const SpanRecorder::Scope s(spans, "setup.topology");
      const auto t0 = Clock::now();
      (void)grid::NanTopology::generate(cfg.nan);
      r.times["grid.build_s"] = seconds_since(t0);
    }
    std::unique_ptr<testbed::NanWorld> world;
    {
      const SpanRecorder::Scope s(spans, "setup.build");
      world = std::make_unique<testbed::NanWorld>(cfg);
    }
    r.setup_s = seconds_since(t_setup);

    Digest digest;
    std::vector<double>& ckpt_ms = r.samples["sim.checkpoint_ms"];
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    run_segments(*world, cfg.duration, 8, r, spans, [&] {
      const SpanRecorder::Scope s(spans, "run.checkpoint");
      const auto c = Clock::now();
      const sim::EngineCheckpoint cp = world->engine().checkpoint();
      ckpt_ms.push_back(seconds_since(c) * 1e3);
      digest.mix(cp.digest());
    });
    r.timed_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    r.sim_s = cfg.duration.seconds();

    const testbed::NanResult res = world->result();
    digest.mix(res.digest);
    r.digest = digest.h;
    r.counts["sim.events"] = res.events;
    r.counts["net.offered"] = res.offered;
    r.counts["net.delivered"] = nan_delivered(res);
    r.counts["fault.events"] = res.fault_events;
    r.counts["hybrid.diversity.dup_packets"] = res.dup_copies;
    r.counts["hybrid.reorder.duplicate_drops"] = res.suppressed;
    r.counts["nan.relay.forwards"] = res.relay_forwards;
    r.check("nan_diversity.diversity_ge_best_single_medium",
            nan_delivered(res) >= best_single);
    return r;
  };
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"link_trace", prepare_link_trace, 1},
      {"hybrid_saturated", prepare_hybrid_saturated, 1},
      {"campus_storm", prepare_campus_storm, 4},
      {"nan_diversity", prepare_nan_diversity, 1},
  };
  return all;
}

}  // namespace perfbench
