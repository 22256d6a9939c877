// Fig. 13 + §6.3: random-scale variation of a *good* link over two weeks —
// hour-of-day BLE averages with standard deviation, weekdays vs weekends.
// Good links barely move (y-span of a few Mb/s) and could be probed every
// minute or hour.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"

using namespace efd;

namespace {

struct HourProfile {
  sim::RunningStats weekday[24];
  sim::RunningStats weekend[24];
};

HourProfile profile_link(testbed::Testbed& tb, int a, int b, int days) {
  auto& est = tb.plc_network_of(b).estimator(b, a);
  core::LinkTraceSampler::Config scfg;
  scfg.step = sim::seconds(5);
  scfg.pbs_per_step = 130000;
  core::LinkTraceSampler sampler(tb.plc_channel(), est, a, b,
                                 sim::Rng{tb.seed() ^ 0x13dULL}, scfg);
  HourProfile profile;
  const sim::Time start = tb.simulator().now();
  for (int s = 0; s < days * 24 * 3600; s += 5) {
    const sim::Time t = start + sim::seconds(s);
    const double ble = sampler.step(t);
    const int hour = static_cast<int>(grid::Calendar::hour_of_day(t));
    auto& bucket = grid::Calendar::is_weekend(t) ? profile.weekend[hour]
                                                 : profile.weekday[hour];
    bucket.add(ble);
  }
  return profile;
}

/// The spread of the 24 hour-of-day means, weekdays and weekends.
struct Spans {
  double weekday = 0.0;
  double weekend = 0.0;
};

Spans print_profile(const HourProfile& p) {
  std::printf("%6s %14s %14s %12s %12s\n", "hour", "weekday BLE", "weekend BLE",
              "wd std", "we std");
  for (int h = 0; h < 24; h += 2) {
    std::printf("%5d: %14.1f %14.1f %12.2f %12.2f\n", h, p.weekday[h].mean(),
                p.weekend[h].mean(), p.weekday[h].stddev(),
                p.weekend[h].stddev());
  }
  sim::RunningStats all_wd, all_we;
  for (int h = 0; h < 24; ++h) {
    all_wd.add(p.weekday[h].mean());
    all_we.add(p.weekend[h].mean());
  }
  const Spans spans{all_wd.max() - all_wd.min(), all_we.max() - all_we.min()};
  std::printf("weekday span: %.1f Mb/s; weekend span: %.1f Mb/s\n", spans.weekday,
              spans.weekend);
  return spans;
}

}  // namespace

int main() {
  bench::header("Fig. 13", "good link over 2 weeks: hour-of-day BLE profile",
                "a good link's BLE spans only a few Mb/s (paper: 88-96) with "
                "tiny error bars; weekends are flatter than weekdays");

  bench::JsonReporter json("fig13");

  // EFD_BENCH_SCALE shortens the trace, but never below a week, so both
  // weekdays and a weekend are always in it.
  const int days =
      std::max(7, static_cast<int>(std::lround(14.0 * bench::duration_scale())));

  sim::Simulator sim;
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  testbed::Testbed tb(sim, cfg);

  // A good link that sits just *below* the 150 Mb/s ceiling stands in for
  // the paper's link 1-8 (which rides at 88-96 Mb/s): at the cap the BLE
  // quantizes flat; just below it the daily load rhythm stays visible.
  int ga = 0, gb = 1;
  double best = 0.0;
  {
    EFD_PROF_SCOPE("phase.pick_link");
    for (const auto& [a, b] : tb.plc_links()) {
      const double noon_snr = tb.plc_channel().mean_snr_db(
          a, b, 0, sim::days(1) + sim::hours(12));
      if (noon_snr > best && noon_snr < 30.0) {
        best = noon_snr;
        ga = a;
        gb = b;
      }
    }
    sim.run_until(sim::hours(0.1));
    best = bench::warmed_ble(tb, ga, gb);
  }
  std::printf("good link: %d->%d (BLE %.0f Mb/s)\n", ga, gb, best);
  HourProfile profile;
  {
    EFD_PROF_SCOPE("phase.trace");
    profile = profile_link(tb, ga, gb, days);
  }
  const Spans spans = print_profile(profile);

  json.add("trace_days", days, "days");
  json.add("good_link_ble", best, "Mb/s");
  json.add("weekday_span", spans.weekday, "Mb/s");
  json.add("weekend_span", spans.weekend, "Mb/s");
  return 0;
}
