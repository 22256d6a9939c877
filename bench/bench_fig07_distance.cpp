// Fig. 7 + §5: saturated throughput vs cable distance for every link, with
// both HomePlug AV and HPAV500; plus PBerr vs throughput (right panel).
//
// Sweep modes (EFD_BENCH_THREADS): unset -> legacy sweep on one shared
// testbed; n >= 1 -> per-link testbeds fanned out via ParallelRunner.
// EFD_BENCH_SCALE shortens each per-link measurement (min. 1 s).
#include <algorithm>

#include "src/testbed/parallel_runner.hpp"

#include "bench_util.hpp"

using namespace efd;

namespace {

struct Row {
  int a = 0, b = 0;
  double dist = 0.0;
  double t_av = 0.0, t_av500 = 0.0;
  double pberr_av = 0.0;
};

/// One generation's saturated run on a link: 8 s, shortened by
/// EFD_BENCH_SCALE but never below 1 s (ten 100 ms throughput windows).
sim::Time measure_duration() {
  return sim::seconds(std::max(1.0, 8.0 * bench::duration_scale()));
}

Row measure_link(testbed::Testbed& tb, int a, int b) {
  Row r{a, b, tb.plc_channel().cable_distance(a, b), 0, 0, 0};
  bench::warm_link(tb, a, b, testbed::PlcGeneration::kHpav);
  r.t_av = testbed::measure_plc_throughput(tb, a, b, measure_duration(),
                                           testbed::PlcGeneration::kHpav)
               .mean_mbps;
  r.pberr_av = tb.plc_network_of(b).mm_pberr(a, b);
  bench::warm_link(tb, a, b, testbed::PlcGeneration::kHpav500);
  r.t_av500 = testbed::measure_plc_throughput(tb, a, b, measure_duration(),
                                              testbed::PlcGeneration::kHpav500)
                  .mean_mbps;
  return r;
}

}  // namespace

int main() {
  bench::header("Fig. 7", "throughput vs cable distance (AV and AV500); PBerr vs T",
                "clear degradation with distance; <30 m guarantees good links, "
                "30-100 m can be good or bad; AV500 revives some dead AV links "
                "(with severe asymmetry); PBerr decreases as throughput rises");
  bench::JsonReporter json("fig07");

  sim::Simulator sim;
  testbed::Testbed tb(sim);  // both generations
  sim.run_until(testbed::weekday_afternoon());

  std::vector<Row> rows;
  const int threads = testbed::ParallelRunner::env_threads();
  if (threads == 0) {
    for (const auto& [a, b] : tb.plc_links()) {
      rows.push_back(measure_link(tb, a, b));
    }
  } else {
    std::printf("sweep: per-link testbeds on %d worker(s)\n", threads);
    const auto links = tb.plc_links();
    const testbed::ParallelRunner pool(threads);
    rows = pool.map_with_sim<Row>(
        static_cast<int>(links.size()), [&links](int i, sim::Simulator& task_sim) {
          testbed::Testbed task_tb(task_sim);  // both generations
          task_sim.run_until(testbed::weekday_afternoon());
          return measure_link(task_tb, links[static_cast<std::size_t>(i)].first,
                              links[static_cast<std::size_t>(i)].second);
        });
  }

  bench::section("throughput vs cable distance (bucket means and ranges)");
  std::printf("%-12s %8s %16s %8s %18s\n", "cable dist", "T_AV", "range_AV",
              "T_AV500", "range_AV500");
  const double edges[] = {0, 20, 30, 40, 50, 60, 70, 85, 110};
  for (std::size_t e = 0; e + 1 < std::size(edges); ++e) {
    sim::RunningStats av, av500;
    for (const auto& r : rows) {
      if (r.dist < edges[e] || r.dist >= edges[e + 1]) continue;
      av.add(r.t_av);
      av500.add(r.t_av500);
    }
    if (av.count() == 0) continue;
    std::printf("%4.0f-%-6.0fm %8.1f %7.1f-%-8.1f %8.1f %8.1f-%-8.1f\n", edges[e],
                edges[e + 1], av.mean(), av.min(), av.max(), av500.mean(),
                av500.min(), av500.max());
  }

  bench::section("links dead on AV but alive on AV500");
  int revived = 0;
  for (const auto& r : rows) {
    if (r.t_av < 1.0 && r.t_av500 > 2.0) {
      ++revived;
      if (revived <= 8) {
        std::printf("  %2d->%2d  %5.1f m: AV %.1f, AV500 %.1f Mb/s\n", r.a, r.b,
                    r.dist, r.t_av, r.t_av500);
      }
    }
  }
  std::printf("total revived links: %d (paper: e.g. link 10-2, 10x asymmetry)\n",
              revived);
  json.add("links_measured", static_cast<double>(rows.size()), "links");
  json.add("revived_on_av500", revived, "links");

  bench::section("PBerr vs throughput (AV)");
  std::printf("%-14s %10s %8s\n", "T bucket", "mean PBerr", "links");
  const double tb_edges[] = {0, 10, 20, 30, 40, 55, 70, 95};
  for (std::size_t e = 0; e + 1 < std::size(tb_edges); ++e) {
    sim::RunningStats p;
    for (const auto& r : rows) {
      if (r.t_av < tb_edges[e] || r.t_av >= tb_edges[e + 1]) continue;
      p.add(r.pberr_av);
    }
    if (p.count() == 0) continue;
    std::printf("%4.0f-%-6.0f    %10.4f %8zu\n", tb_edges[e], tb_edges[e + 1],
                p.mean(), p.count());
  }
  std::printf("(paper: PBerr falls with throughput, up to ~0.4 on bad links)\n");
  return 0;
}
