// Fig. 14 + §6.3: random-scale variation of a *bad* link over two weeks —
// hour-of-day BLE profile plus a daily trace of BLE and throughput. Bad
// links swing tens of Mb/s with the building load and their variability
// (std) grows as quality falls.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"

using namespace efd;

int main() {
  bench::header("Fig. 14", "bad link over 2 weeks: hour-of-day BLE and daily trace",
                "the bad link swings widely with the electrical load (paper: "
                "25-50 Mb/s over the day) and weekends sit above weekdays");
  bench::JsonReporter json("fig14");

  // EFD_BENCH_SCALE shortens the trace, but never below a week, so both
  // weekdays and a weekend are always in it.
  const int days =
      std::max(7, static_cast<int>(std::lround(14.0 * bench::duration_scale())));

  sim::Simulator sim;
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  testbed::Testbed tb(sim, cfg);
  sim.run_until(sim::hours(0.1));

  // A weak-but-alive link stands in for the paper's link 2-11.
  int ba = -1, bb = -1;
  double worst = 1e9;
  {
    EFD_PROF_SCOPE("phase.pick_link");
    for (const auto& [a, b] : tb.plc_links()) {
      if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 7.0) continue;
      const double ble = bench::warmed_ble(tb, a, b);
      if (ble > 15.0 && ble < worst) {
        worst = ble;
        ba = a;
        bb = b;
      }
    }
  }
  std::printf("bad link: %d->%d (BLE %.0f Mb/s)\n", ba, bb, worst);

  auto& est = tb.plc_network_of(bb).estimator(bb, ba);
  core::LinkTraceSampler::Config scfg;
  scfg.step = sim::seconds(5);
  scfg.pbs_per_step = 130000;
  core::LinkTraceSampler sampler(tb.plc_channel(), est, ba, bb,
                                 sim::Rng{tb.seed() ^ 0x14eULL}, scfg);
  core::BleCapacityEstimator capacity;

  sim::RunningStats weekday[24], weekend[24];
  std::vector<double> daily_mean;
  sim::RunningStats day_acc;
  const sim::Time start = sim.now();
  {
    EFD_PROF_SCOPE("phase.trace");
    for (int s = 0; s < days * 24 * 3600; s += 5) {
      const sim::Time t = start + sim::seconds(s);
      const double ble = sampler.step(t);
      const int hour = static_cast<int>(grid::Calendar::hour_of_day(t));
      (grid::Calendar::is_weekend(t) ? weekend[hour] : weekday[hour]).add(ble);
      day_acc.add(ble);
      if (s % (24 * 3600) == 24 * 3600 - 5) {
        daily_mean.push_back(day_acc.mean());
        day_acc = {};
      }
    }
  }

  bench::section("hour-of-day profile (weekdays vs weekends)");
  std::printf("%6s %14s %12s %14s\n", "hour", "weekday BLE", "wd std",
              "weekend BLE");
  for (int h = 0; h < 24; h += 2) {
    std::printf("%5d: %14.1f %12.2f %14.1f\n", h, weekday[h].mean(),
                weekday[h].stddev(), weekend[h].mean());
  }

  bench::section("daily means across the fortnight (BLE and predicted T)");
  std::printf("%6s %10s %14s\n", "day", "BLE Mb/s", "pred. T Mb/s");
  for (std::size_t d = 0; d < daily_mean.size(); ++d) {
    std::printf("%6zu %10.1f %14.1f\n", d, daily_mean[d],
                capacity.throughput_from_ble(daily_mean[d]));
  }

  sim::RunningStats wd_span, we_span;
  for (int h = 0; h < 24; ++h) {
    wd_span.add(weekday[h].mean());
    we_span.add(weekend[h].mean());
  }
  std::printf("\nweekday daily swing: %.1f Mb/s (paper: ~25 Mb/s on link 2-11); "
              "weekend swing: %.1f\n",
              wd_span.max() - wd_span.min(), we_span.max() - we_span.min());

  json.add("trace_days", days, "days");
  json.add("bad_link_ble", worst, "Mb/s");
  json.add("weekday_swing", wd_span.max() - wd_span.min(), "Mb/s");
  json.add("weekend_swing", we_span.max() - we_span.min(), "Mb/s");
  return 0;
}
